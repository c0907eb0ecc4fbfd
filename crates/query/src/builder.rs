//! [`DbBuilder`]: the one way to construct a [`Db`].
//!
//! ```
//! use rdb_query::prelude::*;
//! use rdb_storage::{Column, Schema, ValueType};
//!
//! // In-memory (the default).
//! let mut db = Db::builder().open()?;
//! db.create_table("T", Schema::new(vec![Column::new("X", ValueType::Int)]))?;
//! # Ok::<(), QueryError>(())
//! ```
//!
//! For a database that survives the process, point the builder at a
//! directory; pages, WAL, and catalog live there and reopening runs redo
//! recovery:
//!
//! ```no_run
//! use rdb_query::prelude::*;
//!
//! let db = Db::builder().path("/var/tmp/mydb").open()?;
//! # Ok::<(), QueryError>(())
//! ```

use std::path::PathBuf;

use rdb_storage::DURABLE_PAGE_BYTES;

use crate::db::{Db, DbConfig};
use crate::error::QueryError;

/// Where the database's pages live.
#[derive(Debug, Clone, Default)]
enum Target {
    /// Process memory; nothing survives the process.
    #[default]
    InMemory,
    /// A directory of page files + WAL; reopening recovers.
    Path(PathBuf),
}

/// Builder for [`Db`] — construction starts at [`Db::builder`].
///
/// Defaults match [`DbConfig::default`], except that a durable database
/// ([`DbBuilder::path`]) defaults its page size to
/// [`rdb_storage::DURABLE_PAGE_BYTES`] so heap pages fit the 4KB disk
/// frames; an explicit [`DbBuilder::page_bytes`] always wins (and is
/// validated against the frame budget at open).
#[derive(Debug, Clone, Default)]
pub struct DbBuilder {
    config: DbConfig,
    /// True once the caller pinned the page size (directly or via a whole
    /// [`DbConfig`]); only an unpinned size is swapped for the durable
    /// default.
    page_bytes_set: bool,
    target: Target,
}

impl DbBuilder {
    pub(crate) fn new() -> Self {
        DbBuilder::default()
    }

    /// Keeps all pages in process memory (the default).
    pub fn in_memory(mut self) -> Self {
        self.target = Target::InMemory;
        self
    }

    /// Backs the database by `dir`: 4KB checksummed page frames, a
    /// write-ahead log, and a catalog header. Opening an existing
    /// directory runs redo recovery; its on-disk page size wins over any
    /// configured one.
    pub fn path(mut self, dir: impl Into<PathBuf>) -> Self {
        self.target = Target::Path(dir.into());
        self
    }

    /// Replaces the whole configuration (pins the page size too).
    pub fn config(mut self, config: DbConfig) -> Self {
        self.config = config;
        self.page_bytes_set = true;
        self
    }

    /// Buffer-pool capacity in pages.
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.config.pool_pages = pages;
        self
    }

    /// Heap-page payload bytes (pins the size; durable opens validate it
    /// against the disk-frame budget).
    pub fn page_bytes(mut self, bytes: usize) -> Self {
        self.config.page_bytes = bytes;
        self.page_bytes_set = true;
        self
    }

    /// WAL segment cap in bytes (durable targets only): the log rotates
    /// into a fresh `wal-<seq>.rdb` once the live segment would exceed
    /// this, and checkpoints recycle whole segments. Small caps force
    /// frequent rotation — useful for crash harnesses.
    pub fn wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.config.wal_segment_bytes = bytes;
        self
    }

    /// Opens the database. In-memory opens cannot fail in practice;
    /// durable opens surface file-system and recovery errors as typed
    /// [`QueryError::Storage`] values (a torn page no image can repair,
    /// an unreadable directory, a page size over the frame budget, …).
    pub fn open(self) -> Result<Db, QueryError> {
        match self.target {
            Target::InMemory => Ok(Db::open_in_memory(self.config)),
            Target::Path(dir) => {
                let mut config = self.config;
                if !self.page_bytes_set {
                    config.page_bytes = DURABLE_PAGE_BYTES;
                }
                Db::open_durable(config, &dir)
            }
        }
    }
}

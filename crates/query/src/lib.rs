#![forbid(unsafe_code)]

//! # rdb-query
//!
//! The query-layer substrate around the dynamic optimizer of Antoshenkov
//! (ICDE 1993):
//!
//! * [`expr`] — Boolean restriction trees over table columns with **host
//!   variables** (`:A1`), the paper's prime source of compile-time
//!   uncertainty; binding happens per run, so the executor below re-decides
//!   strategy per run.
//! * [`plan`] — query-plan nodes and the Section 4 **optimization-goal
//!   derivation**: EXISTS and LIMIT TO n ROWS set fast-first for the
//!   retrieval they control; SORT/DISTINCT/aggregates set total-time;
//!   otherwise the user's explicit or default goal applies.
//! * [`parser`] — a small SQL-ish front end (`SELECT … WHERE … ORDER BY …
//!   LIMIT … OPTIMIZE FOR …`) so the examples read like the paper's.
//! * [`options`] — [`QueryOptions`], the per-run builder carrying host-
//!   variable bindings, goal/limit overrides, and an optional
//!   [`rdb_core::TraceSink`].
//! * [`error`] — [`QueryError`], the typed error surface of the whole
//!   crate (every public operation returns it).
//! * [`db`] — the top-level [`Db`] handle: tables + indexes over one
//!   shared buffer pool, the durability lifecycle, DDL, and the statement
//!   entry points. Behind them, every statement kind (ad-hoc, prepared,
//!   `EXPLAIN`, DML) runs one private pipeline — `parse → resolve →
//!   bind_args → request → run → finish` — through
//!   [`rdb_core::DynamicOptimizer`], yielding a [`QueryResult`] with
//!   per-query [`QueryMetrics`]; [`Session`] is the same surface on a
//!   private cost meter.
//! * [`explain`] — [`ExplainAnalyze`]: the executed query's result plus
//!   its full competition timeline, rendered for terminals or serialized
//!   as JSON.
//! * [`join`] — two-table `FROM A, B` statements: the WHERE clause is
//!   decomposed into per-side residuals plus cross-table comparisons, and
//!   execution races every feasible join method and orientation through
//!   [`rdb_core::run_join`] with the paper's kill rules armed.
//! * [`builder`] / [`catalog`] — database construction through
//!   [`DbBuilder`] (`Db::builder().open()` in memory,
//!   `Db::builder().path(dir).open()` for a durable database with WAL +
//!   crash recovery) and the persisted catalog of table/index definitions.
//!
//! Most applications only need the [`prelude`]:
//!
//! ```
//! use rdb_query::prelude::*;
//!
//! let mut db = Db::builder().open()?;
//! db.create_table("T", Schema::new(vec![Column::new("X", ValueType::Int)]))?;
//! db.insert("T", vec![Value::Int(7)])?;
//! let result = db.query("select * from T where X = 7", &QueryOptions::new())?;
//! assert_eq!(result.rows.len(), 1);
//! # Ok::<(), QueryError>(())
//! ```

pub mod builder;
pub mod catalog;
pub mod db;
mod dml;
pub mod error;
mod exec;
pub mod explain;
pub mod expr;
pub mod join;
pub mod options;
pub mod parser;
pub mod plan;
pub mod prepared;
mod session;
pub mod sort;

pub use builder::DbBuilder;
pub use catalog::{Catalog, IndexDef, TableDef};
pub use db::{Db, DbConfig};
pub use error::QueryError;
pub use exec::{QueryMetrics, QueryResult};
pub use explain::ExplainAnalyze;
pub use expr::{CmpOp, Expr, Scalar};
pub use options::QueryOptions;
pub use plan::{derive_goals, effective_goal, PlanNode, RetrieveId};
pub use prepared::{PlanCacheStats, Prepared};
pub use session::Session;
pub use sort::{sort_rows, sort_rows_dir, SortConfig, SortStats};

/// One-stop imports for applications embedding the engine.
///
/// Brings in the database handle and its configuration, the per-run
/// options builder, the typed error, result/metrics types, `EXPLAIN
/// ANALYZE`, and the storage-layer vocabulary (values, schemas) needed to
/// define tables and rows.
pub mod prelude {
    pub use crate::builder::DbBuilder;
    pub use crate::db::{Db, DbConfig};
    pub use crate::error::QueryError;
    pub use crate::exec::{QueryMetrics, QueryResult};
    pub use crate::explain::ExplainAnalyze;
    pub use crate::options::QueryOptions;
    pub use crate::prepared::{PlanCacheStats, Prepared};
    pub use crate::session::Session;
    pub use rdb_core::OptimizeGoal;
    pub use rdb_storage::{Column, Schema, Value, ValueType};
}

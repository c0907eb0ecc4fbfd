//! The whole engine surface the benchmark compiles against, imported in
//! this one file. Later changes may restructure engine internals but may
//! not edit `benchmark/`, so keep this list as small as the job allows
//! (see README.md, "Engine surface").

pub use rdb_btree::{BTree, KeyRange};
pub use rdb_core::{TraceBuffer, TraceEvent};
pub use rdb_query::parser::parse_query;
pub use rdb_query::prelude::*;
pub use rdb_storage::{
    shared_meter, shared_pool, CostConfig, CostMeter, FileId, HeapTable, PageId, PoolStats,
    PrefetchStats, Rid, SharedStore, StoreStats, WalRecord,
};
pub use rdb_workload::{ColumnSpec, FamiliesConfig, TableGen};

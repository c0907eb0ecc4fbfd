//! Client sessions: the same statement pipeline as [`Db`]'s own entry
//! points, charged to a private cost meter.

use rdb_storage::{shared_meter, CostConfig, SharedCost};

use crate::db::Db;
use crate::error::QueryError;
use crate::exec::QueryResult;
use crate::options::QueryOptions;
use crate::parser::{parse_query, QuerySpec};
use crate::prepared::Prepared;

/// One client's handle on a shared [`Db`]: same tables, same buffer pool,
/// private cost meter. Create with [`Db::session`]; clone-free and `Send`,
/// so a session can move into a worker thread.
pub struct Session<'db> {
    db: &'db Db,
    cost: SharedCost,
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db Db) -> Self {
        Session {
            db,
            cost: shared_meter(CostConfig::default()),
        }
    }

    /// This session's private meter (all its queries charge here).
    pub fn cost(&self) -> &SharedCost {
        &self.cost
    }

    /// The shared database this session runs against.
    pub fn db(&self) -> &'db Db {
        self.db
    }

    /// Runs a query on this session's meter (see [`Db::query`]).
    pub fn query(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult, QueryError> {
        let spec = parse_query(sql)?;
        self.query_spec(&spec, opts)
    }

    /// Runs a pre-parsed query on this session's meter.
    pub fn query_spec(
        &self,
        spec: &QuerySpec,
        opts: &QueryOptions,
    ) -> Result<QueryResult, QueryError> {
        self.db.query_spec_on(spec, opts, &self.cost)
    }

    /// [`Db::prepare`] charging this session's private meter. The plan
    /// cache itself is shared database-wide, so sessions preparing the
    /// same statement reuse one cached skeleton (and tactic memory).
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'db>, QueryError> {
        self.db.prepare_on(sql, self.cost.clone())
    }

    /// [`Db::explain`] for this session's binding, with the estimation
    /// descents charged to this session's meter.
    pub fn explain(&self, sql: &str, opts: &QueryOptions) -> Result<String, QueryError> {
        self.db.explain_on(sql, opts, &self.cost)
    }
}

//! Prepared statements and the plan cache.
//!
//! The paper's central scenario is a *parameterized query executed over
//! and over with shifting host variables* — `AGE >= :A1` rebound per run.
//! Ad hoc, every such execution re-parses the statement and re-resolves
//! columns and index metadata. [`Db::prepare`] pays those costs once:
//!
//! * The **plan cache** maps statement text to a `CachedPlan`: the
//!   parsed AST plus a resolved plan *skeleton* (projection, order target,
//!   per-index metadata — everything binding-independent).
//! * Each [`Prepared::execute`] re-binds host variables and re-derives
//!   only the key ranges, then runs through the exact same runner as an
//!   ad-hoc query (which is simply a prepare whose skeleton is not
//!   cached) — prepared row sets are identical to fresh execution by
//!   construction.
//! * Nothing about a previous execution's outcome is remembered: the
//!   tactic is chosen afresh on every execution from the statement, this
//!   run's bindings and its options, exactly as for an ad-hoc query, so
//!   a prepared run, an ad-hoc run and `EXPLAIN` always agree.
//!
//! # Invalidation
//!
//! Skeletons are tagged with the catalog generation they were resolved
//! under. Creating a table or index bumps the generation, forcing a
//! re-resolve on the next execution — observable as a `plan_cache` trace
//! event with outcome `"invalidated"` and a `plan_cache_misses` tick in
//! [`QueryMetrics`].
//! [`Db::clear_plan_cache`] instead wipes every skeleton in place, which
//! reaches even outstanding [`Prepared`] handles through their shared
//! plan `Arc`, so their next execution resolves cold.
//!
//! [`Db::prepare`]: crate::db::Db::prepare
//! [`Db::clear_plan_cache`]: crate::db::Db::clear_plan_cache
//! [`QueryMetrics`]: crate::QueryMetrics

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rdb_core::TraceEvent;
use rdb_storage::SharedCost;

use crate::db::Db;
use crate::error::QueryError;
use crate::exec::{QueryResult, Resolved};
use crate::options::QueryOptions;
use crate::parser::QuerySpec;

/// Validity tag of a cached skeleton: the catalog generation it was
/// resolved under. (Cache clears don't need their own epoch: `clear`
/// wipes every [`SkeletonSlot`] in place, which reaches outstanding
/// [`Prepared`] handles through their shared [`CachedPlan`] `Arc`.)
pub(crate) type PlanTag = u64;

/// The guarded skeleton of one cached statement, together with this
/// statement's execution counters. The counters live here — under a
/// mutex the execute path must hold anyway — so a warm execution never
/// touches the cache-wide lock.
#[derive(Default)]
pub(crate) struct SkeletonSlot {
    /// `Some((tag, skeleton))` once resolved; rebuilt when the tag goes
    /// stale. The skeleton is behind an `Arc` so a warm execution
    /// borrows it with a refcount bump instead of a deep clone. Holds
    /// either shape: single-table retrieval or two-table join.
    pub(crate) skel: Option<(PlanTag, Arc<Resolved>)>,
    /// Executions that reused a valid skeleton.
    pub(crate) hits: u64,
    /// Executions that built (or rebuilt) the skeleton.
    pub(crate) misses: u64,
    /// The subset of `misses` forced by a catalog change.
    pub(crate) invalidations: u64,
}

/// One cached statement: the parsed AST plus the lazily resolved,
/// generation-tagged plan skeleton.
pub(crate) struct CachedPlan {
    pub(crate) statement: String,
    pub(crate) spec: QuerySpec,
    /// Skeleton + per-statement counters. Guarded separately from the
    /// cache map so concurrent executors of *different* statements never
    /// contend here.
    pub(crate) skeleton: Mutex<SkeletonSlot>,
}

/// Aggregate plan-cache counters (database-wide; per-query hit/miss lands
/// in [`crate::QueryMetrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Statements currently cached.
    pub statements: usize,
    /// Cache hits: `prepare` calls that found their statement, plus
    /// executions that reused a valid skeleton.
    pub hits: u64,
    /// Cache misses: `prepare` calls that had to parse, plus executions
    /// that built a skeleton cold.
    pub misses: u64,
    /// Skeleton rebuilds forced by a catalog change or
    /// [`clear_plan_cache`](crate::db::Db::clear_plan_cache).
    pub invalidations: u64,
}

struct PlanCacheInner {
    plans: HashMap<String, Arc<CachedPlan>>,
    /// Prepare-level lookup counters, plus the counters absorbed from
    /// plans that were dropped by [`PlanCache::clear`] (per-statement
    /// counters otherwise live in each plan's [`SkeletonSlot`]).
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// Statement-text-keyed plan cache owned by [`Db`]. All counters live
/// under the same mutex as the map — the cache is consulted once per
/// prepare/execute, never inside the retrieval hot path.
pub(crate) struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

impl PlanCache {
    pub(crate) fn new() -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner {
                plans: HashMap::new(),
                hits: 0,
                misses: 0,
                invalidations: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PlanCacheInner> {
        // Counter state stays valid even if a holder panicked.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `sql`, parsing and inserting on miss.
    pub(crate) fn lookup_or_parse(&self, sql: &str) -> Result<Arc<CachedPlan>, QueryError> {
        // Parse outside the lock on the miss path? No: parsing is cheap and
        // doing it inside keeps double-insertion races from wasting work.
        let mut inner = self.lock();
        if let Some(plan) = inner.plans.get(sql) {
            let plan = Arc::clone(plan);
            inner.hits += 1;
            return Ok(plan);
        }
        let spec = crate::parser::parse_query(sql)?;
        let plan = Arc::new(CachedPlan {
            statement: sql.to_string(),
            spec,
            skeleton: Mutex::new(SkeletonSlot::default()),
        });
        inner.plans.insert(sql.to_string(), Arc::clone(&plan));
        inner.misses += 1;
        Ok(plan)
    }

    /// Clears the cache. Every plan's skeleton is wiped *in place* —
    /// outstanding [`Prepared`] handles share the same
    /// `Arc<CachedPlan>`, so their next execution resolves cold. Plans
    /// with no outstanding handle are dropped from the map (their
    /// counters absorbed first, so [`stats`](Self::stats) never goes
    /// backwards); plans a live handle still points at stay, keeping
    /// their future executions visible in the aggregate counters.
    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        let mut absorbed = (0u64, 0u64, 0u64);
        inner.plans.retain(|_, plan| {
            let mut slot = plan
                .skeleton
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let retain = Arc::strong_count(plan) > 1;
            if !retain {
                absorbed.0 += slot.hits;
                absorbed.1 += slot.misses;
                absorbed.2 += slot.invalidations;
                slot.hits = 0;
                slot.misses = 0;
                slot.invalidations = 0;
            }
            slot.skel = None;
            retain
        });
        inner.hits += absorbed.0;
        inner.misses += absorbed.1;
        inner.invalidations += absorbed.2 + 1;
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        let mut stats = PlanCacheStats {
            statements: inner.plans.len(),
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
        };
        for plan in inner.plans.values() {
            let slot = plan
                .skeleton
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            stats.hits += slot.hits;
            stats.misses += slot.misses;
            stats.invalidations += slot.invalidations;
        }
        stats
    }
}

/// A prepared statement: parse + resolve paid once, host variables
/// re-bound per execution, the tactic chosen afresh on every run.
///
/// Created by [`Db::prepare`] (charges the database's default meter) or
/// [`Session::prepare`](crate::Session::prepare) (charges the
/// session's private meter). Cheap to create when the statement is
/// already cached, and usable from multiple threads — the underlying
/// `CachedPlan` is shared through the database's plan cache.
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
/// let stmt = db.prepare("select * from T where X >= :A1")?;
/// for a1 in [90i64, 95, 99] {
///     let r = stmt.execute(&QueryOptions::new().with_param("A1", a1))?;
///     assert_eq!(r.rows.len(), (100 - a1) as usize);
/// }
/// # Ok::<(), QueryError>(())
/// ```
pub struct Prepared<'db> {
    pub(crate) db: &'db Db,
    pub(crate) cost: SharedCost,
    pub(crate) plan: Arc<CachedPlan>,
}

impl Prepared<'_> {
    /// The statement text this handle was prepared from.
    pub fn statement(&self) -> &str {
        &self.plan.statement
    }

    /// Executes the statement with this run's bindings. Identical result
    /// contract to [`Db::query`] — the same runner executes both; what is
    /// this path's own is where the skeleton comes from (the plan-cache
    /// slot, validated against the catalog generation and rebuilt if
    /// stale), the hit/miss tallies and the `plan_cache` trace event.
    /// [`crate::QueryMetrics`] reports whether the cached skeleton was
    /// reused (`plan_cache_hits`/`plan_cache_misses`).
    pub fn execute(&self, opts: &QueryOptions) -> Result<QueryResult, QueryError> {
        let (db, plan) = (self.db, &*self.plan);
        let tag: PlanTag = db.catalog_gen;

        // Warm executions stay entirely off the cache-wide lock: validity
        // is one integer compare, the skeleton comes out as an `Arc`
        // refcount bump, and the hit tally lands in the slot's own
        // counter under the mutex already held.
        let (resolved, cache_hit, outcome, detail) = {
            let mut slot = plan
                .skeleton
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let warm = match &slot.skel {
                Some((t, skel)) if *t == tag => Some(Arc::clone(skel)),
                _ => None,
            };
            if let Some(skel) = warm {
                slot.hits += 1;
                (skel, true, "hit", "reused cached plan skeleton")
            } else {
                let invalidated = slot.skel.is_some();
                let skel = Arc::new(db.resolve(&plan.spec)?);
                slot.skel = Some((tag, Arc::clone(&skel)));
                slot.misses += 1;
                if invalidated {
                    slot.invalidations += 1;
                }
                let (outcome, detail) = if invalidated {
                    (
                        "invalidated",
                        "catalog generation moved; skeleton re-resolved",
                    )
                } else {
                    ("miss", "resolved cold on first execution")
                };
                (skel, false, outcome, detail)
            }
        };
        // The strings are built inside the closure: untraced executions
        // (the common case) never materialize them.
        opts.tracer().emit_with(|| TraceEvent::PlanCache {
            outcome: outcome.into(),
            statement: plan.statement.clone(),
            detail: detail.into(),
        });

        let mut result = db.run(&plan.spec, &resolved, opts, &self.cost)?;
        result.metrics.plan_cache_hits = u64::from(cache_hit);
        result.metrics.plan_cache_misses = u64::from(!cache_hit);
        Ok(result)
    }
}

impl Db {
    /// Prepares `sql` through the shared plan cache, charging `cost` on
    /// every execution ([`Db::prepare`] passes the database's default
    /// meter, [`crate::Session::prepare`] the session's).
    pub(crate) fn prepare_on(&self, sql: &str, cost: SharedCost) -> Result<Prepared<'_>, QueryError> {
        Ok(Prepared {
            db: self,
            cost,
            plan: self.plan_cache.lookup_or_parse(sql)?,
        })
    }
}

impl std::fmt::Debug for Prepared<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("statement", &self.plan.statement)
            .finish_non_exhaustive()
    }
}

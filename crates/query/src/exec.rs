//! The one statement pipeline: `parse → resolve → bind_args → request →
//! run → finish`.
//!
//! Every statement kind takes this path. An ad-hoc query resolves its
//! skeleton onto the stack; a prepared statement takes the skeleton from
//! its plan-cache slot (`prepared.rs`); `EXPLAIN` builds the same request
//! and asks the optimizer to *choose* instead of run. Nothing else
//! differs, so what `EXPLAIN` reports is what runs, and prepared row sets
//! equal fresh ones by construction. This is also the one place where a
//! statement's estimates meet its outcome.

use std::sync::Arc;

use rdb_btree::KeyRange;
use rdb_core::{Delivery, IndexChoice, RetrievalRequest, RetrievalResult, ShortcutKind};
use rdb_storage::{Record, Rid, SharedCost, Value};

use crate::db::{unknown_column, Db, TableEntry};
use crate::error::QueryError;
use crate::expr::{CompiledPred, Expr, PredArgs};
use crate::join::ResolvedJoin;
use crate::options::QueryOptions;
use crate::parser::{parse_query, QuerySpec};
use crate::plan::effective_goal;
use crate::sort::SortConfig;

/// Per-query buffer-pool activity: the session meter's counter delta
/// across one run. Because each session charges its own [`SharedCost`],
/// these stay per-query-accurate even when many sessions share the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    /// Buffer-pool hits this query caused.
    pub pool_hits: u64,
    /// Buffer-pool misses (simulated physical reads) this query caused.
    pub pool_misses: u64,
    /// 1 when this execution reused a cached plan skeleton (prepared
    /// statements only; ad-hoc queries never consult the cache).
    pub plan_cache_hits: u64,
    /// 1 when this execution had to (re)build its plan skeleton — the
    /// first run of a prepared statement, or any run after a catalog
    /// change / [`Db::clear_plan_cache`].
    pub plan_cache_misses: u64,
    /// Pages fetched ahead of the scan cursor by sequential read-ahead
    /// during this run. Pool-wide counter delta: on a shared pool,
    /// concurrent sessions' prefetches land in whichever run is active.
    pub prefetched_pages: u64,
    /// Prefetched frames the scan actually reached. The gap to
    /// `prefetched_pages` is wasted read-ahead — the adaptive window
    /// shrinks when it grows.
    pub prefetch_consumed: u64,
}

/// Result of one query run.
#[derive(Debug)]
pub struct QueryResult {
    /// Output column names, shared with the statement's plan skeleton.
    pub columns: Arc<[String]>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Simulated cost units spent (estimation + retrieval).
    pub cost: f64,
    /// The tactic/strategy that ran. The decisions behind it are in the
    /// typed trace: attach a [`rdb_core::TraceSink`] via
    /// [`QueryOptions::with_trace`].
    pub strategy: &'static str,
    /// Buffer-pool activity of this run.
    pub metrics: QueryMetrics,
}

/// Binding-independent facts about one index of the queried table,
/// precomputed at resolve time. Only the key *ranges* (and the
/// self-sufficient key predicate's argument values) depend on
/// host-variable values, so each run re-derives just those, from the
/// tree's own key columns.
#[derive(Debug, Clone)]
struct IndexMeta {
    /// The restriction remapped onto this index's key-tuple positions.
    /// Present exactly when a self-sufficient scan is legal: the index
    /// covers the query *and* the key columns cover every predicate
    /// column.
    key_pred: Option<Arc<CompiledPred>>,
    /// Key-tuple positions of the output columns, present when the index
    /// covers the query — index-only deliveries project by position
    /// instead of re-resolving names per row.
    out_key_pos: Option<Vec<usize>>,
    /// Key-tuple position of the ORDER BY column (covered indexes only).
    order_key_pos: Option<usize>,
    /// The leading key column matches the query's ORDER BY.
    provides_order: bool,
}

/// The skeleton of a resolved single-table query: projection, order
/// target, the compiled (position-resolved, argument-slotted) restriction
/// and per-index metadata — everything derivable from the statement and
/// the catalog alone; each execution fills in only the host-variable
/// arguments.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedQuery {
    out_columns: Arc<[String]>,
    /// Record positions of `out_columns` — row projection is positional,
    /// never a per-row name lookup. The flag marks the last pick of a
    /// position ([`mark_last_picks`]).
    out_idx: Vec<(usize, bool)>,
    /// True when the projection is the whole record in schema order: a
    /// fetched record's values *are* the output row.
    out_identity: bool,
    order_idx: Option<usize>,
    pred: Arc<CompiledPred>,
    index_meta: Vec<IndexMeta>,
}

/// A resolved statement skeleton: the single-table retrieval shape or the
/// two-table join shape, depending on the statement's FROM list. Ad-hoc
/// statements build one per run; prepared statements cache one per
/// catalog generation.
#[derive(Debug, Clone)]
pub(crate) enum Resolved {
    /// Single-table retrieval skeleton.
    Single(ResolvedQuery),
    /// Two-table join skeleton.
    Join(ResolvedJoin),
}

/// What a statement does with its retrieved items: COUNT, post-sort,
/// LIMIT — derived once per run, consumed by [`Db::finish`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tail {
    limit: Option<usize>,
    /// ORDER BY with nothing upstream serving the order.
    post_sort: bool,
    descending: bool,
    count: bool,
}

impl Tail {
    /// `order_served`: the retrieval itself delivers the requested order
    /// (an order-providing index is on offer).
    pub(crate) fn new(spec: &QuerySpec, opts: &QueryOptions, order_served: bool) -> Tail {
        Tail {
            limit: opts.limit().or(spec.limit),
            post_sort: spec.order_by.is_some() && !order_served,
            descending: spec.order_desc,
            count: spec.count_star,
        }
    }

    /// The limit the retrieval may stop at: with a post-sort or count
    /// pending, every row must be retrieved before the limit applies.
    pub(crate) fn retrieval_limit(&self) -> Option<usize> {
        if self.post_sort || self.count {
            None
        } else {
            self.limit
        }
    }
}

/// The sort key [`Db::finish`] asked a row producer for: `value` when a
/// post-sort is pending (`keyed`), `Null` otherwise.
pub(crate) fn sort_key(keyed: bool, value: Option<&Value>) -> Value {
    match value {
        Some(v) if keyed => v.clone(),
        _ => Value::Null,
    }
}

/// Flags each projected position with whether it is that position's last
/// pick: the one pick that may move the value out of its record instead of
/// cloning it ([`pick`]).
pub(crate) fn mark_last_picks<P: Copy + PartialEq>(picks: &mut [(P, bool)]) {
    for k in 0..picks.len() {
        let (p, _) = picks[k];
        picks[k].1 = !picks[k + 1..].iter().any(|(q, _)| *q == p);
    }
}

/// Projects one value out of a record the row producer owns: moved on its
/// position's last pick, cloned on an earlier one — a delivered value is
/// built once, when its record was decoded.
pub(crate) fn pick(value: &mut Value, last: bool) -> Value {
    if last {
        std::mem::replace(value, Value::Null)
    } else {
        value.clone()
    }
}

/// The metadata of the index an index-only (Sscan) winner read, out of
/// `offered`: the metadata of each offered index, parallel to the
/// request's list (the optimizer's sscan position indexes it).
fn sscan_meta<'a>(found: &RetrievalResult, offered: &[&'a IndexMeta]) -> Option<&'a IndexMeta> {
    offered.get(found.sscan_index?).copied()
}

/// Resolves `spec` against the current catalog: validates every referenced
/// column and precomputes the binding-independent plan skeleton. Columns
/// are positions from here on; no name is copied except into a
/// projection's output names.
fn resolve_query(entry: &TableEntry, spec: &QuerySpec) -> Result<ResolvedQuery, QueryError> {
    let schema = entry.heap.schema();
    let column = |name: &str| {
        schema
            .column_index(name)
            .ok_or_else(|| unknown_column(&spec.table, name))
    };
    let (out_columns, mut out_idx) = match &spec.projection {
        Some(cols) => {
            let picks = cols.iter().map(|c| Ok((column(c)?, true)));
            let out_idx = picks.collect::<Result<Vec<_>, QueryError>>()?;
            (cols.iter().cloned().collect(), out_idx)
        }
        None => {
            let out_idx = (0..schema.len()).map(|col| (col, true)).collect();
            (Arc::clone(&entry.column_names), out_idx)
        }
    };
    mark_last_picks(&mut out_idx);
    // Lower the restriction once: names → record positions, host
    // variables → argument slots. Ad-hoc queries rebuild this per run;
    // prepared statements reuse it from the cached skeleton — that is the
    // bulk of the per-execution work the plan cache amortizes.
    let pred = CompiledPred::lower(&[&spec.predicate], |c| schema.column_index(c))
        .map_err(|c| unknown_column(&spec.table, c))?;
    let pred = Arc::new(pred);
    let order_idx = spec.order_by.as_deref().map(column).transpose()?;

    let index_meta: Vec<IndexMeta> = entry
        .indexes
        .iter()
        .map(|tree| {
            let key_cols = tree.key_columns();
            let key_pos = |col: usize| key_cols.iter().position(|&k| k == col);
            // Self-sufficiency needs the key to cover every output, order
            // and predicate column; remapping the predicate onto the key
            // fails exactly when the last do not.
            let out_and_order_covered = out_idx
                .iter()
                .map(|&(col, _)| col)
                .chain(order_idx)
                .all(|col| key_pos(col).is_some());
            let key_pred = if out_and_order_covered {
                pred.remap_columns(key_pos).map(Arc::new)
            } else {
                None
            };
            let covered = key_pred.is_some();
            IndexMeta {
                key_pred,
                out_key_pos: covered.then(|| {
                    out_idx
                        .iter()
                        .filter_map(|&(col, _)| key_pos(col))
                        .collect()
                }),
                order_key_pos: order_idx.filter(|_| covered).and_then(key_pos),
                provides_order: order_idx.is_some_and(|col| key_cols.first() == Some(&col)),
            }
        })
        .collect();

    Ok(ResolvedQuery {
        out_identity: out_idx.iter().map(|&(col, _)| col).eq(0..schema.len()),
        out_columns,
        out_idx,
        order_idx,
        pred,
        index_meta,
    })
}

/// The request builder: turns a single-table skeleton plus this run's
/// bound arguments into what the optimizer is asked — the one place
/// index offering, order/self-sufficiency marking, goal derivation and
/// limit suppression are decided, for runs and `EXPLAIN` alike. Returns
/// the request, the metadata of each offered index (parallel to
/// `request.indexes`) and the statement's tail.
fn build_retrieval<'a>(
    entry: &'a TableEntry,
    spec: &QuerySpec,
    skel: &'a ResolvedQuery,
    args: &PredArgs,
    opts: &QueryOptions,
    cost: &SharedCost,
) -> (RetrievalRequest<'a>, Vec<&'a IndexMeta>, Tail) {
    // OR-connected restriction: when every top-level disjunct binds to an
    // index range, those ranges are the request's arms and no index is
    // offered — the optimizer runs the union scan. `None`: not every
    // disjunct binds to an index, so the conjunctive machinery runs.
    let arms = skel.pred.disjuncts().and_then(|disjuncts| {
        (0..disjuncts)
            .map(|d| {
                entry.indexes.iter().find_map(|tree| {
                    let range = skel.pred.disjunct_range(args, d, tree.key_columns()[0]);
                    (range != KeyRange::all()).then_some((tree, range))
                })
            })
            .collect::<Option<Vec<_>>>()
    });

    // Offer indexes from the resolved skeleton; only the key ranges and
    // the predicates' argument values depend on this run's bindings.
    let mut indexes: Vec<IndexChoice<'a>> = Vec::new();
    let mut offered: Vec<&IndexMeta> = Vec::new();
    let offerable = if arms.is_some() { &[][..] } else { &entry.indexes[..] };
    for (tree, meta) in offerable.iter().zip(&skel.index_meta) {
        let range = skel.pred.range_for_composite(args, tree.key_columns());
        let self_sufficient = meta.key_pred.as_ref().map(|kp| kp.key_pred(args));
        let constrained = range != KeyRange::all();
        if !(constrained || meta.provides_order || self_sufficient.is_some()) {
            continue; // useless index for this query
        }
        let mut choice = IndexChoice::fetch_needed(tree, range);
        // ASC is served by forward index scans, DESC by reverse scans.
        if meta.provides_order {
            choice = choice.with_order();
            if spec.order_desc {
                choice = choice.with_descending();
            }
        }
        if let Some(kp) = self_sufficient {
            choice = choice.with_self_sufficient(kp);
        }
        indexes.push(choice);
        offered.push(meta);
    }

    let order_possible = indexes.iter().any(|c| c.provides_order);
    let tail = Tail::new(spec, opts, order_possible);
    let request = RetrievalRequest {
        table: &entry.heap,
        indexes,
        arms: arms.unwrap_or_default(),
        residual: skel.pred.record_pred(args),
        // Section 4 goal derivation: an aggregate (COUNT) controls the
        // retrieval and sets total-time; an explicit request (SQL or
        // options override) wins next; a LIMIT sets fast-first; otherwise
        // total-time.
        goal: effective_goal(spec.count_star, opts.goal().or(spec.goal), tail.limit),
        order_required: order_possible,
        limit: tail.retrieval_limit(),
        cost: cost.clone(),
    };
    (request, offered, tail)
}

impl Db {
    /// Runs a pre-parsed statement on `cost`: ad-hoc execution is a
    /// prepare whose skeleton is not cached.
    pub(crate) fn query_spec_on(
        &self,
        spec: &QuerySpec,
        opts: &QueryOptions,
        cost: &SharedCost,
    ) -> Result<QueryResult, QueryError> {
        let resolved = self.resolve(spec)?;
        self.run(spec, &resolved, opts, cost)
    }

    /// The right-hand table of a two-table statement.
    fn right_table(&self, spec: &QuerySpec) -> Result<&TableEntry, QueryError> {
        let name = spec.join_table.as_deref().ok_or_else(|| {
            QueryError::Unsupported("join skeleton for a single-table statement".into())
        })?;
        self.table(name)
    }

    /// Resolves `spec` against the current catalog into whichever skeleton
    /// shape its FROM list calls for.
    pub(crate) fn resolve(&self, spec: &QuerySpec) -> Result<Resolved, QueryError> {
        let left = self.table(&spec.table)?;
        Ok(match spec.join_table.as_deref() {
            None => Resolved::Single(resolve_query(left, spec)?),
            Some(right_name) => Resolved::Join(crate::join::resolve_join(
                &spec.table,
                left,
                right_name,
                self.table(right_name)?,
                spec,
            )?),
        })
    }

    /// **The** runner: executes a resolved statement for this run's
    /// bindings and wraps the meter delta into the result's
    /// [`QueryMetrics`].
    pub(crate) fn run(
        &self,
        spec: &QuerySpec,
        resolved: &Resolved,
        opts: &QueryOptions,
        cost: &SharedCost,
    ) -> Result<QueryResult, QueryError> {
        let before = cost.snapshot();
        let pf_before = self.pool.prefetch_stats();
        let left = self.table(&spec.table)?;
        let mut result = match resolved {
            Resolved::Single(skel) => self.run_single(left, spec, skel, opts, cost)?,
            Resolved::Join(skel) => {
                let right = self.right_table(spec)?;
                crate::join::execute_join(self, left, right, spec, skel, opts, cost)?
            }
        };
        let delta = cost.snapshot().since(&before);
        let pf = self.pool.prefetch_stats().since(&pf_before);
        result.metrics = QueryMetrics {
            pool_hits: delta.cache_hits,
            pool_misses: delta.page_reads,
            prefetched_pages: pf.prefetched_pages,
            prefetch_consumed: pf.consumed_pages,
            ..QueryMetrics::default()
        };
        Ok(result)
    }

    /// Locates the victims of a DML restriction through the same request
    /// builder as a query: `predicate` is resolved as `select count(*)`
    /// over every column, so the table's indexes are offered for this
    /// binding with goal total-time and no limit (an aggregate controls
    /// the retrieval, Section 4). Maintenance needs each victim's full
    /// record, so an index is offered fetch-needed — the optimizer prices
    /// the fetches — unless its key covers every column, and then its key
    /// tuple, reordered, is the record. Victims come back sorted by RID,
    /// the order a Tscan delivers. They are all materialised before the
    /// caller's first write, so rewriting an indexed column cannot feed
    /// rows back into the scan.
    pub(crate) fn locate_victims(
        &self,
        table: &str,
        predicate: &Expr,
        opts: &QueryOptions,
    ) -> Result<Vec<(Rid, Record)>, QueryError> {
        let entry = self.table(table)?;
        let spec = QuerySpec {
            count_star: true,
            projection: None,
            table: table.to_string(),
            join_table: None,
            predicate: predicate.clone(),
            order_by: None,
            order_desc: false,
            limit: None,
            goal: None,
        };
        let skel = resolve_query(entry, &spec)?;
        let args = skel.pred.bind_args(opts.params())?;
        let (request, offered, _) = build_retrieval(entry, &spec, &skel, &args, opts, &self.cost);
        let found = self.optimizer().run_traced(&request, None, &opts.tracer())?;
        let key_to_record = sscan_meta(&found, &offered).and_then(|m| m.out_key_pos.as_ref());
        let mut victims = found.deliveries;
        victims.sort_unstable_by_key(|d| d.rid);
        victims
            .into_iter()
            .map(|d| {
                let record = match (d.record, key_to_record) {
                    (Some(key), Some(out)) if d.from_index => {
                        Record::new(out.iter().map(|&k| key[k].clone()).collect())
                    }
                    (Some(record), _) if !d.from_index => record,
                    _ => entry.heap.fetch(d.rid, &self.cost)?,
                };
                Ok((d.rid, record))
            })
            .collect()
    }

    fn run_single(
        &self,
        entry: &TableEntry,
        spec: &QuerySpec,
        skel: &ResolvedQuery,
        opts: &QueryOptions,
        cost: &SharedCost,
    ) -> Result<QueryResult, QueryError> {
        // One argument lookup per distinct host variable.
        let args = skel.pred.bind_args(opts.params())?;
        let (request, offered, tail) = build_retrieval(entry, spec, skel, &args, opts, cost);
        let found = self.optimizer().run_traced(&request, None, &opts.tracer())?;
        let sscan = sscan_meta(&found, &offered);
        let outcome = (found.cost, found.strategy);
        let row = |d: Delivery, keyed: bool| {
            if d.from_index {
                let meta = sscan.expect("index-only delivery without sscan index");
                let key = d.record.as_ref().expect("sscan key tuple");
                let out = meta
                    .out_key_pos
                    .as_ref()
                    .expect("self-sufficiency guarantees coverage");
                Ok((
                    sort_key(keyed, meta.order_key_pos.map(|k| &key[k])),
                    out.iter().map(|&k| key[k].clone()).collect(),
                ))
            } else {
                // The delivery is ours: its values move into the row.
                let record = match d.record {
                    Some(r) => r,
                    None => entry.heap.fetch(d.rid, cost)?,
                };
                let key = sort_key(keyed, skel.order_idx.map(|i| &record[i]));
                let mut values = record.into_values();
                let out = if skel.out_identity {
                    values
                } else {
                    skel.out_idx
                        .iter()
                        .map(|&(i, last)| pick(&mut values[i], last))
                        .collect()
                };
                Ok((key, out))
            }
        };
        self.finish(tail, &skel.out_columns, found.deliveries, outcome, cost, row)
    }

    /// **The** finish stage, shared by single-table, union and join
    /// results: turns the retrieved `items` (deliveries or join pairs) and
    /// the run's `(cost units, strategy)` into the
    /// [`QueryResult`]. COUNT(*) → one row; otherwise `row` projects each
    /// item, the rows are post-sorted when nothing upstream served the
    /// ORDER BY, and LIMIT truncates what a post-sort kept the retrieval
    /// from stopping at. `row(item, keyed)` returns the item's `(sort
    /// key, output row)`; the key is only gathered (`keyed`) when a
    /// post-sort is pending and is `Null` otherwise.
    pub(crate) fn finish<I>(
        &self,
        tail: Tail,
        columns: &Arc<[String]>,
        items: I,
        (units, strategy): (f64, &'static str),
        cost: &SharedCost,
        mut row: impl FnMut(I::Item, bool) -> Result<(Value, Vec<Value>), QueryError>,
    ) -> Result<QueryResult, QueryError>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        let (columns, rows) = if tail.count {
            let count = vec![Value::Int(items.len() as i64)];
            (Arc::from(["COUNT".to_string()]), vec![count])
        } else if tail.post_sort {
            let mut keyed = Vec::with_capacity(items.len());
            for item in items {
                keyed.push(row(item, true)?);
            }
            let (mut rows, _) = crate::sort::sort_rows_dir(
                keyed,
                &self.pool,
                &SortConfig::default(),
                tail.descending,
                cost,
            );
            if let Some(limit) = tail.limit {
                rows.truncate(limit);
            }
            (Arc::clone(columns), rows)
        } else {
            let mut rows = Vec::with_capacity(items.len());
            for item in items {
                rows.push(row(item, false)?.1);
            }
            (Arc::clone(columns), rows)
        };
        Ok(QueryResult {
            columns,
            rows,
            cost: units,
            strategy,
            metrics: QueryMetrics::default(),
        })
    }

    /// `EXPLAIN` on `cost`: the same resolve → bind → request path as a
    /// run, ending in the optimizer's *choice* instead of its execution.
    pub(crate) fn explain_on(
        &self,
        sql: &str,
        opts: &QueryOptions,
        cost: &SharedCost,
    ) -> Result<String, QueryError> {
        let spec = parse_query(sql)?;
        let left = self.table(&spec.table)?;
        let skel = match self.resolve(&spec)? {
            Resolved::Single(skel) => skel,
            Resolved::Join(skel) => {
                let right = self.right_table(&spec)?;
                return crate::join::explain_join(left, right, &skel, opts, cost);
            }
        };
        let args = skel.pred.bind_args(opts.params())?;
        let request = build_retrieval(left, &spec, &skel, &args, opts, cost).0;
        let (choice, plan) = self.optimizer().choose(&request);
        let detail = match &plan.shortcut {
            Some(ShortcutKind::EmptyResult { index }) => {
                format!(" (index {index} proves the result empty)")
            }
            Some(ShortcutKind::TinyRange { count, .. }) => {
                format!(" (tiny range of ~{count} RIDs)")
            }
            None if !plan.jscan_order.is_empty() => {
                // A union's plan holds its arms, in request order.
                let (order, names): (_, Vec<&str>) = if request.arms.is_empty() {
                    let names = plan.jscan_order.iter().map(|&p| request.indexes[p].tree.name());
                    ("scan order by ascending estimate", names.collect())
                } else {
                    ("arms", request.arms.iter().map(|(tree, _)| tree.name()).collect())
                };
                let listed = names.iter().zip(&plan.jscan_estimates);
                let listed: Vec<_> = listed.map(|(name, est)| format!("{name}~{est:.0}")).collect();
                format!(" ({order}: {})", listed.join(", "))
            }
            None => String::new(),
        };
        Ok(format!("{choice:?}{detail}"))
    }
}

#[cfg(test)]
mod tests {
    use crate::db::tests::db_with_families;
    use crate::options::QueryOptions;
    use rdb_core::{TraceBuffer, TraceEvent};

    /// `EXPLAIN` names exactly the tactic a run of the same statement and
    /// binding announces in `TacticChosen` — they share the request
    /// builder, so this holds for every shape, including the
    /// order-serving, self-sufficient and OR-connected ones. A prepared
    /// handle executed repeatedly under changing options runs that same
    /// tactic every time: nothing from an earlier execution carries over.
    #[test]
    fn explain_names_the_tactic_the_run_chooses() {
        let mut db = db_with_families(3000);
        let agree = |db: &crate::Db, sql: &str, opts: QueryOptions, expect: &str| {
            let buf = TraceBuffer::shared(4096);
            db.query(sql, &opts.clone().with_trace(buf.clone())).unwrap();
            let ran = buf
                .events()
                .into_iter()
                .find_map(|e| match e {
                    TraceEvent::TacticChosen { tactic, .. } => Some(tactic),
                    _ => None,
                })
                .expect("tactic-chosen event");
            let explained = db.explain(sql, &opts).unwrap();
            let named = explained.split(' ').next().unwrap();
            assert_eq!(named, ran, "{sql}: explain said {explained:?}");
            assert_eq!(ran, expect, "{sql}");
        };
        let plain = QueryOptions::new;
        let a1 = |v: i64| QueryOptions::new().with_param("A1", v);
        let by_age = "select * from FAMILIES where AGE >= :A1";
        agree(&db, by_age, a1(50), "BackgroundOnly");
        agree(&db, by_age, a1(500), "EndOfData");
        agree(&db, "select * from FAMILIES where SIZE = 4 limit to 3 rows", plain(), "FastFirst");
        agree(&db, "select AGE from FAMILIES where AGE >= 50", plain(), "SscanStatic");
        agree(
            &db,
            "select * from FAMILIES where AGE >= 50 order by AGE limit to 10 rows",
            plain(),
            "Sorted",
        );
        agree(&db, "select * from FAMILIES order by AGE", plain(), "Sorted");
        agree(&db, "select * from FAMILIES", plain(), "TscanOnly");
        agree(
            &db,
            "select count(*) from FAMILIES where SIZE = 4 limit to 1 rows",
            plain(),
            "BackgroundOnly",
        );
        // OR: every disjunct binds to an index → the union scan ...
        agree(&db, "select * from FAMILIES where AGE = 1 or SIZE = 2", plain(), "UnionScan");
        // ... but ID has no index, so this one runs (and explains as) the
        // conjunctive machinery.
        agree(&db, "select * from FAMILIES where AGE = 1 or ID = 2", plain(), "TscanOnly");
        // Two constrained indexes make the tactic competitive, so the goal
        // alone decides it: one prepared handle follows each execution's
        // options exactly as an ad-hoc run and `EXPLAIN` do.
        let both = "select * from FAMILIES where AGE >= :A1 and SIZE >= :S";
        let bound = || a1(50).with_param("S", 3);
        let stmt = db.prepare(both).unwrap();
        for (opts, expect) in [
            (bound(), "BackgroundOnly"),
            (bound().with_goal(rdb_core::OptimizeGoal::FastFirst), "FastFirst"),
            (bound().with_limit(10), "FastFirst"),
            (bound(), "BackgroundOnly"),
        ] {
            let prepared = stmt.execute(&opts).unwrap().strategy;
            let adhoc = db.query(both, &opts).unwrap().strategy;
            let explained = db.explain(both, &opts).unwrap();
            assert_eq!(prepared, adhoc, "{opts:?}");
            assert_eq!(explained.split(' ').next(), Some(adhoc), "{opts:?}");
            assert_eq!(adhoc, expect, "{opts:?}");
        }
        // A second self-sufficient candidate turns the static Sscan into
        // the index-only competition.
        db.create_index("IDX_AGE_ID", "FAMILIES", &["AGE", "ID"]).unwrap();
        agree(&db, "select AGE from FAMILIES where AGE >= 50", plain(), "IndexOnly");
    }
}

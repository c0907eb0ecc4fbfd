//! Retrieval requests, optimization goals, and result delivery.

use std::fmt;
use std::sync::Arc;

use rdb_btree::{BTree, KeyRange};
use rdb_storage::{HeapTable, Record, Rid, SharedCost, Value};

/// The paper's two optimization goals (Section 4): minimize total
/// retrieval time, or minimize time to the first few records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizeGoal {
    /// `OPTIMIZE FOR TOTAL TIME` — set by SORT / aggregate plan nodes or
    /// by explicit request.
    TotalTime,
    /// `OPTIMIZE FOR FAST FIRST` — set by EXISTS / LIMIT TO n ROWS nodes
    /// or by explicit request.
    FastFirst,
}

/// Predicate over a full data record (the "total restriction").
///
/// `Send + Sync` because sessions share a `Db` across threads, so a
/// compiled restriction may be run from any of them.
pub type RecordPred = Arc<dyn Fn(&Record) -> bool + Send + Sync>;

/// Predicate over an index key (for self-sufficient evaluation).
pub type KeyPred = Arc<dyn Fn(&[Value]) -> bool + Send + Sync>;

/// One index offered to the optimizer, with the restriction portion that
/// binds to it.
#[derive(Clone)]
pub struct IndexChoice<'a> {
    /// The index.
    pub tree: &'a BTree,
    /// The key range implied by the restriction on this index's leading
    /// column(s) — the index's "restriction portion".
    pub range: KeyRange,
    /// Set when the index contains every column the query needs
    /// (restriction + output), making it **self-sufficient**; the predicate
    /// evaluates the residual restriction directly on index keys.
    pub self_sufficient: Option<KeyPred>,
    /// True when a forward scan of this index delivers the requested
    /// order (**order-needed** index).
    pub provides_order: bool,
    /// With `provides_order`: the requested order is descending, so the
    /// index must be scanned in reverse.
    pub descending: bool,
}

impl fmt::Debug for IndexChoice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexChoice")
            .field("tree", &self.tree.name())
            .field("range", &self.range)
            .field("self_sufficient", &self.self_sufficient.is_some())
            .field("provides_order", &self.provides_order)
            .finish()
    }
}

impl<'a> IndexChoice<'a> {
    /// A plain fetch-needed index with a restriction range.
    pub fn fetch_needed(tree: &'a BTree, range: KeyRange) -> Self {
        IndexChoice {
            tree,
            range,
            self_sufficient: None,
            provides_order: false,
            descending: false,
        }
    }

    /// Marks the index self-sufficient with the given key-level residual.
    pub fn with_self_sufficient(mut self, pred: KeyPred) -> Self {
        self.self_sufficient = Some(pred);
        self
    }

    /// Marks the index as delivering the requested order.
    pub fn with_order(mut self) -> Self {
        self.provides_order = true;
        self
    }

    /// Marks the requested order as descending (reverse index scan).
    pub fn with_descending(mut self) -> Self {
        self.descending = true;
        self
    }
}

/// A single-table retrieval request, after host-variable binding.
pub struct RetrievalRequest<'a> {
    /// The table to retrieve from.
    pub table: &'a HeapTable,
    /// Indexes usable for this retrieval.
    pub indexes: Vec<IndexChoice<'a>>,
    /// The arms of an OR-connected restriction: one index range per
    /// top-level disjunct, whose RIDs the union scan unites. Empty for an
    /// AND-connected restriction; a request with arms offers no `indexes`.
    pub arms: Vec<(&'a BTree, KeyRange)>,
    /// The total restriction, evaluated on data records.
    pub residual: RecordPred,
    /// Optimization goal.
    pub goal: OptimizeGoal,
    /// True if results must arrive in the order provided by an
    /// order-needed index.
    pub order_required: bool,
    /// Stop after this many delivered records (models EXISTS / LIMIT and
    /// user "close retrieval").
    pub limit: Option<usize>,
    /// The session meter every page/record/RID charge for this retrieval
    /// lands on. Defaults to the table pool's meter; concurrent sessions
    /// supply their own via [`RetrievalRequest::with_cost`] so per-query
    /// attribution survives a shared pool.
    pub cost: SharedCost,
}

impl<'a> RetrievalRequest<'a> {
    /// A request with no indexes and a residual predicate only.
    pub fn table_only(table: &'a HeapTable, residual: RecordPred, goal: OptimizeGoal) -> Self {
        let cost = table.pool().cost().clone();
        RetrievalRequest {
            table,
            indexes: Vec::new(),
            arms: Vec::new(),
            residual,
            goal,
            order_required: false,
            limit: None,
            cost,
        }
    }

    /// Charges this retrieval to `cost` instead of the pool's default
    /// meter (one meter per client session).
    pub fn with_cost(mut self, cost: SharedCost) -> Self {
        self.cost = cost;
        self
    }

    /// Returns a copy of the request's limit as a count, `usize::MAX` when
    /// unlimited.
    pub fn limit_or_max(&self) -> usize {
        self.limit.unwrap_or(usize::MAX)
    }
}

/// One delivered result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// RID of the delivered record.
    pub rid: Rid,
    /// The record. For fetch-based strategies this is the full data
    /// record; for Sscan it is the **index key tuple** (see `from_index`)
    /// — no heap fetch ever happened, which is the point of the
    /// index-only tactic.
    pub record: Option<Record>,
    /// True when `record` holds index key columns rather than a full row.
    pub from_index: bool,
}

/// Callback invoked on every delivery, in delivery order — the streaming
/// face of the executor. Fast-first consumers (cursors, EXISTS) see rows
/// the moment the foreground produces them, long before the run returns.
pub type DeliveryObserver<'o> = Box<dyn FnMut(&Delivery) + 'o>;

/// Collects deliveries and enforces the limit.
pub struct Sink<'o> {
    limit: usize,
    deliveries: Vec<Delivery>,
    observer: Option<DeliveryObserver<'o>>,
}

impl std::fmt::Debug for Sink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink")
            .field("limit", &self.limit)
            .field("deliveries", &self.deliveries.len())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<'o> Sink<'o> {
    /// A sink stopping after `limit` rows (`None` = unlimited).
    pub fn new(limit: Option<usize>) -> Self {
        Sink {
            limit: limit.unwrap_or(usize::MAX),
            deliveries: Vec::new(),
            observer: None,
        }
    }

    /// A sink that additionally streams each delivery to `observer`.
    pub fn with_observer(limit: Option<usize>, observer: DeliveryObserver<'o>) -> Self {
        Sink {
            limit: limit.unwrap_or(usize::MAX),
            deliveries: Vec::new(),
            observer: Some(observer),
        }
    }

    /// Delivers a full-record row. Returns `false` once the limit is
    /// reached — the caller must stop retrieval ("forceful close").
    pub fn deliver(&mut self, rid: Rid, record: Option<Record>) -> bool {
        self.push(rid, record, false)
    }

    /// Delivers a row whose record is the index key tuple (Sscan path).
    pub fn deliver_from_index(&mut self, rid: Rid, record: Option<Record>) -> bool {
        self.push(rid, record, true)
    }

    fn push(&mut self, rid: Rid, record: Option<Record>, from_index: bool) -> bool {
        debug_assert!(
            !self.deliveries.iter().any(|d| d.rid == rid),
            "duplicate delivery of {rid}"
        );
        let delivery = Delivery {
            rid,
            record,
            from_index,
        };
        if let Some(obs) = &mut self.observer {
            obs(&delivery);
        }
        self.deliveries.push(delivery);
        self.deliveries.len() < self.limit
    }

    /// True once the limit has been reached.
    pub fn is_full(&self) -> bool {
        self.deliveries.len() >= self.limit
    }

    /// Rows delivered so far.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Number of rows delivered.
    pub fn len(&self) -> usize {
        self.deliveries.len()
    }

    /// True if nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.deliveries.is_empty()
    }

    /// Consumes the sink, yielding the deliveries.
    pub fn into_deliveries(self) -> Vec<Delivery> {
        self.deliveries
    }
}

/// Final report of one retrieval run.
#[derive(Debug)]
pub struct RetrievalResult {
    /// Delivered rows, in delivery order.
    pub deliveries: Vec<Delivery>,
    /// Total cost units spent on this retrieval.
    pub cost: f64,
    /// Which tactic/strategy ultimately ran (for experiment reporting).
    /// The decisions taken on the way are in the typed trace
    /// ([`crate::trace::TraceEvent`]), when a tracer is attached.
    pub strategy: &'static str,
    /// Position (in the request's index list) of the self-sufficient index
    /// whose key tuples appear in `from_index` deliveries, when one ran.
    pub sscan_index: Option<usize>,
}

impl RetrievalResult {
    /// Delivered RIDs in delivery order.
    pub fn rids(&self) -> Vec<Rid> {
        self.deliveries.iter().map(|d| d.rid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_enforces_limit() {
        let mut sink = Sink::new(Some(2));
        assert!(sink.deliver(Rid::new(0, 0), None));
        assert!(!sink.deliver(Rid::new(0, 1), None), "limit hit");
        assert!(sink.is_full());
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn unlimited_sink_never_fills() {
        let mut sink = Sink::new(None);
        for i in 0..1000 {
            assert!(sink.deliver(Rid::new(i, 0), None));
        }
        assert!(!sink.is_full());
    }

    /// The check is a `debug_assert!`, so the test exists only where
    /// debug assertions are compiled in (a release test run has neither).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate delivery")]
    fn duplicate_delivery_caught_in_debug() {
        let mut sink = Sink::new(None);
        sink.deliver(Rid::new(1, 1), None);
        sink.deliver(Rid::new(1, 1), None);
    }
}

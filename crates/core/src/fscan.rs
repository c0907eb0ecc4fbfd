//! Fscan — fetch-needed index scan with immediate data-record fetches
//! (paper Section 4: "a classical indexed retrieval").
//!
//! Fscan is the natural fast-first strategy: each qualifying index entry
//! triggers an immediate record fetch, restriction evaluation, and
//! delivery. In the **sorted tactic** (Section 7) an Fscan can be handed a
//! Jscan-produced [`Filter`] mid-run; from then on it rejects RIDs *before*
//! fetching, "eliminating a large number of record fetches that usually
//! comprise the biggest cost portion of retrieval".

use rdb_btree::scan::RangeScanRev;
use rdb_btree::{BTree, KeyRange, RangeScan};
use rdb_storage::{HeapTable, SharedCost, StorageError};

use crate::filter::Filter;
use crate::request::RecordPred;
use crate::tscan::StrategyStep;

enum Cursor {
    Fwd(RangeScan),
    Rev(RangeScanRev),
}

/// Resumable index scan + fetch strategy.
pub struct Fscan<'a> {
    table: &'a HeapTable,
    tree: &'a BTree,
    scan: Cursor,
    residual: RecordPred,
    cost: SharedCost,
    filter: Option<Filter>,
    /// Galloping-probe cursor into `filter`: forward scans probe in
    /// ascending RID order within each key, so sequential probes are
    /// cheaper than a fresh binary search (descending scans simply fall
    /// back through the cursor's out-of-order path).
    probe: usize,
    entries_seen: u64,
    fetches: u64,
    filter_rejections: u64,
    delivered: u64,
}

impl<'a> Fscan<'a> {
    /// Opens an Fscan over `range`; fetched records are checked against the
    /// total restriction `residual`.
    pub fn new(
        table: &'a HeapTable,
        tree: &'a BTree,
        range: KeyRange,
        residual: RecordPred,
        cost: SharedCost,
    ) -> Self {
        Self::with_direction(table, tree, range, residual, false, cost)
    }

    /// Opens an Fscan scanning `range` in the chosen direction
    /// (`descending = true` serves `ORDER BY ... DESC` from the index).
    pub fn with_direction(
        table: &'a HeapTable,
        tree: &'a BTree,
        range: KeyRange,
        residual: RecordPred,
        descending: bool,
        cost: SharedCost,
    ) -> Self {
        let scan = if descending {
            Cursor::Rev(tree.range_scan_rev(range, &cost))
        } else {
            Cursor::Fwd(tree.range_scan(range, &cost))
        };
        Fscan {
            table,
            tree,
            scan,
            residual,
            cost,
            filter: None,
            probe: 0,
            entries_seen: 0,
            fetches: 0,
            filter_rejections: 0,
            delivered: 0,
        }
    }

    /// Installs a pre-fetch RID filter (the sorted tactic's cooperation
    /// channel). May be called mid-run as soon as the background Jscan
    /// completes its filter.
    pub fn set_filter(&mut self, filter: Filter) {
        self.filter = Some(filter);
        self.probe = 0;
    }

    /// True once a filter is installed.
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Estimated total cost of an Fscan over `entries` qualifying index
    /// entries: the scan itself plus one record fetch per entry (random
    /// I/O, the dominant term).
    pub fn full_cost(table: &HeapTable, tree: &BTree, entries: f64) -> f64 {
        let cfg = table.pool().cost_config();
        let leaf_pages = (entries / tree.avg_fanout().max(1.0)).ceil();
        leaf_pages * cfg.io_read
            + entries * cfg.index_entry
            + entries * (cfg.io_read + cfg.cpu_record)
    }

    /// Index entries consumed so far.
    pub fn entries_seen(&self) -> u64 {
        self.entries_seen
    }

    /// Record fetches performed so far.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// RIDs rejected by the installed filter before fetching.
    pub fn filter_rejections(&self) -> u64 {
        self.filter_rejections
    }

    /// Rows delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Advances by one index entry (fetching at most one record). `Err`
    /// means an index page or data page died under the scan; benign fetch
    /// errors (record deleted between index read and fetch) are skipped.
    pub fn step(&mut self) -> Result<StrategyStep, StorageError> {
        let next = match &mut self.scan {
            Cursor::Fwd(s) => s.next_rid(self.tree, &self.cost),
            Cursor::Rev(s) => s.next_rid(self.tree, &self.cost),
        };
        match next? {
            None => Ok(StrategyStep::Done),
            Some(rid) => {
                self.entries_seen += 1;
                if let Some(f) = &self.filter {
                    if !f.contains_seq(&mut self.probe, rid) {
                        self.filter_rejections += 1;
                        return Ok(StrategyStep::Progress);
                    }
                }
                self.fetches += 1;
                match self.table.fetch(rid, &self.cost) {
                    Ok(record) if (self.residual)(&record) => {
                        self.delivered += 1;
                        Ok(StrategyStep::Deliver(rid, Some(record)))
                    }
                    Ok(_) => Ok(StrategyStep::Progress),
                    // Record deleted under us: skip. Anything else (fault,
                    // corruption) must not be silently dropped.
                    Err(e) if e.is_benign_for_scan() => Ok(StrategyStep::Progress),
                    Err(e) => Err(e),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, FileId, Record, Rid, Schema, Value,
        ValueType,
    };

    fn setup(n: i64) -> (HeapTable, BTree) {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost);
        let mut table = HeapTable::with_page_bytes(
            "t",
            FileId(0),
            Schema::new(vec![
                Column::new("x", ValueType::Int),
                Column::new("y", ValueType::Int),
            ]),
            pool.clone(),
            512,
        );
        let mut tree = BTree::new("idx_x", FileId(1), pool, vec![0], 8);
        for i in 0..n {
            let rid = table
                .insert(Record::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .unwrap();
            tree.insert(vec![Value::Int(i)], rid);
        }
        (table, tree)
    }

    fn accept_all() -> RecordPred {
        Arc::new(|_: &Record| true)
    }

    fn meter(table: &HeapTable) -> SharedCost {
        table.pool().cost().clone()
    }

    #[test]
    fn delivers_range_with_records() {
        let (table, tree) = setup(200);
        let mut f = Fscan::new(&table, &tree, KeyRange::closed(50, 59), accept_all(), meter(&table));
        let mut vals = Vec::new();
        loop {
            match f.step().unwrap() {
                StrategyStep::Deliver(_, Some(rec)) => vals.push(rec[0].as_i64().unwrap()),
                StrategyStep::Deliver(_, None) => unreachable!(),
                StrategyStep::Progress => {}
                StrategyStep::Done => break,
            }
        }
        assert_eq!(vals, (50..60).collect::<Vec<_>>());
        assert_eq!(f.fetches(), 10);
    }

    #[test]
    fn residual_rejects_fetched_records() {
        let (table, tree) = setup(100);
        let residual: RecordPred = Arc::new(|r: &Record| r[1] == Value::Int(0));
        let mut f = Fscan::new(&table, &tree, KeyRange::closed(0, 29), residual, meter(&table));
        let mut n = 0;
        loop {
            match f.step().unwrap() {
                StrategyStep::Deliver(..) => n += 1,
                StrategyStep::Progress => {}
                StrategyStep::Done => break,
            }
        }
        assert_eq!(n, 10, "y == 0 holds for every third record");
        assert_eq!(f.fetches(), 30, "every range entry was fetched");
    }

    #[test]
    fn filter_rejects_before_fetch() {
        let (table, tree) = setup(100);
        let mut f = Fscan::new(&table, &tree, KeyRange::closed(0, 99), accept_all(), meter(&table));
        // Filter allowing only records with x < 10 (their RIDs).
        let allowed: Vec<Rid> = tree
            .range_to_vec(KeyRange::closed(0, 9), &meter(&table))
            .into_iter()
            .map(|(_, rid)| rid)
            .collect();
        f.set_filter(Filter::sorted(allowed));
        let mut n = 0;
        loop {
            match f.step().unwrap() {
                StrategyStep::Deliver(..) => n += 1,
                StrategyStep::Progress => {}
                StrategyStep::Done => break,
            }
        }
        assert_eq!(n, 10);
        assert_eq!(f.fetches(), 10, "filtered RIDs must not be fetched");
        assert_eq!(f.filter_rejections(), 90);
    }

    #[test]
    fn filter_installed_mid_run() {
        let (table, tree) = setup(100);
        let mut f = Fscan::new(&table, &tree, KeyRange::all(), accept_all(), meter(&table));
        for _ in 0..20 {
            f.step().unwrap();
        }
        let fetched_before = f.fetches();
        f.set_filter(Filter::sorted(vec![])); // reject everything from now on
        while !matches!(f.step().unwrap(), StrategyStep::Done) {}
        assert_eq!(f.fetches(), fetched_before, "no fetch after empty filter");
    }

    #[test]
    fn full_cost_dominated_by_fetches() {
        let (table, tree) = setup(100);
        let c10 = Fscan::full_cost(&table, &tree, 10.0);
        let c100 = Fscan::full_cost(&table, &tree, 100.0);
        assert!(c100 > 5.0 * c10);
    }
}

//! Tscan — full sequential table scan (paper Section 4: "a classical
//! sequential retrieval").

use rdb_storage::{HeapScan, HeapTable, Record, Rid, SharedCost, StorageError};

use crate::request::RecordPred;

/// One quantum's outcome for a resumable strategy.
#[derive(Debug)]
pub enum StrategyStep {
    /// A qualifying row was found.
    Deliver(Rid, Option<Record>),
    /// Work was done but nothing qualified this quantum.
    Progress,
    /// The strategy has exhausted its input.
    Done,
}

/// Resumable full table scan evaluating the total restriction on every
/// record.
pub struct Tscan<'a> {
    table: &'a HeapTable,
    residual: RecordPred,
    scan: HeapScan,
    /// The row under the cursor, decoded in place; a row that qualifies
    /// is moved out to the caller, one that does not costs no allocation.
    scratch: Record,
    cost: SharedCost,
    examined: u64,
    delivered: u64,
}

impl<'a> Tscan<'a> {
    /// Opens a Tscan charging to `cost`.
    pub fn new(table: &'a HeapTable, residual: RecordPred, cost: SharedCost) -> Self {
        Tscan {
            table,
            residual,
            scan: table.scan(),
            scratch: Record::default(),
            cost,
            examined: 0,
            delivered: 0,
        }
    }

    /// Estimated total cost of a full Tscan of `table` — known in advance,
    /// which is what makes Tscan the "guaranteed" fallback of Section 6.
    pub fn full_cost(table: &HeapTable) -> f64 {
        let cfg = table.pool().cost_config();
        table.page_count() as f64 * cfg.io_read + table.cardinality() as f64 * cfg.cpu_record
    }

    /// Records examined so far.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Rows delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Fraction of the table scanned (pages).
    pub fn progress(&self) -> f64 {
        self.scan.progress(self.table)
    }

    /// Advances by one record. `Err` means the underlying storage failed
    /// (e.g. an injected fault) — the scan is dead and the retrieval must
    /// surface the error.
    pub fn step(&mut self) -> Result<StrategyStep, StorageError> {
        match self
            .scan
            .next_into(self.table, &self.cost, &mut self.scratch)?
        {
            None => Ok(StrategyStep::Done),
            Some(rid) => {
                self.examined += 1;
                if (self.residual)(&self.scratch) {
                    self.delivered += 1;
                    let record = std::mem::take(&mut self.scratch);
                    Ok(StrategyStep::Deliver(rid, Some(record)))
                } else {
                    Ok(StrategyStep::Progress)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rdb_storage::{shared_meter, shared_pool, Column, CostConfig, FileId, Schema, Value, ValueType};

    fn table(n: i64) -> HeapTable {
        let pool = shared_pool(10_000, shared_meter(CostConfig::default()));
        let mut t = HeapTable::with_page_bytes(
            "t",
            FileId(0),
            Schema::new(vec![Column::new("x", ValueType::Int)]),
            pool,
            256,
        );
        for i in 0..n {
            t.insert(Record::new(vec![Value::Int(i)])).unwrap();
        }
        t
    }

    #[test]
    fn delivers_exactly_matching_records() {
        let t = table(100);
        let pred: RecordPred = Arc::new(|r: &Record| r[0].as_i64().unwrap() % 10 == 0);
        let mut scan = Tscan::new(&t, pred, t.pool().cost().clone());
        let mut delivered = Vec::new();
        loop {
            match scan.step().unwrap() {
                StrategyStep::Deliver(_, Some(rec)) => {
                    delivered.push(rec[0].as_i64().unwrap())
                }
                StrategyStep::Deliver(_, None) => unreachable!("tscan materializes"),
                StrategyStep::Progress => {}
                StrategyStep::Done => break,
            }
        }
        assert_eq!(delivered, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
        assert_eq!(scan.examined(), 100);
        assert_eq!(scan.delivered(), 10);
    }

    #[test]
    fn full_cost_matches_actual_cold_scan() {
        let t = table(500);
        let cost = t.pool().cost().clone();
        let predicted = Tscan::full_cost(&t);
        let before = cost.total();
        let pred: RecordPred = Arc::new(|_: &Record| false);
        let mut scan = Tscan::new(&t, pred, t.pool().cost().clone());
        while !matches!(scan.step().unwrap(), StrategyStep::Done) {}
        let actual = cost.total() - before;
        assert!(
            (actual - predicted).abs() < 0.01 * predicted.max(1.0),
            "predicted {predicted} vs actual {actual}"
        );
    }

    #[test]
    fn empty_table_finishes_immediately() {
        let t = table(0);
        let pred: RecordPred = Arc::new(|_: &Record| true);
        let mut scan = Tscan::new(&t, pred, t.pool().cost().clone());
        assert!(matches!(scan.step().unwrap(), StrategyStep::Done));
    }
}

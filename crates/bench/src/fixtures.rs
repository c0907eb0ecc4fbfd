//! Shared experiment fixtures.

use rdb_btree::BTree;
use rdb_core::TraceEvent;
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Schema, Value,
    ValueType,
};

/// A raw (core-level) fixture: one table with modular columns and one
/// index per column — the canonical Jscan playground.
pub struct JscanFixture {
    /// The data table.
    pub table: HeapTable,
    /// One index per column, `indexes[k]` over column `k`.
    pub indexes: Vec<BTree>,
    /// Row count.
    pub n: i64,
    /// Column moduli (`col_k = i % mods[k]`; the last column is `i`).
    pub mods: Vec<i64>,
}

impl JscanFixture {
    /// Builds the fixture: columns `c0..c{mods.len()-1}` with
    /// `ck = i % mods[k]`, plus a final unique column `id = i`.
    pub fn build(n: i64, mods: &[i64], pool_pages: usize) -> JscanFixture {
        let pool = shared_pool(pool_pages, shared_meter(CostConfig::default()));
        let mut columns: Vec<Column> = (0..mods.len())
            .map(|k| Column::new(format!("c{k}"), ValueType::Int))
            .collect();
        columns.push(Column::new("id", ValueType::Int));
        let schema = Schema::new(columns);
        let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 1024);
        let mut indexes: Vec<BTree> = (0..=mods.len())
            .map(|k| {
                BTree::new(
                    if k == mods.len() {
                        "idx_id".to_string()
                    } else {
                        format!("idx_c{k}")
                    },
                    FileId(1 + k as u32),
                    pool.clone(),
                    vec![k],
                    64,
                )
            })
            .collect();
        for i in 0..n {
            let mut values: Vec<Value> = mods.iter().map(|m| Value::Int(i % m)).collect();
            values.push(Value::Int(i));
            let rid = table.insert(Record::new(values.clone())).unwrap();
            for (k, idx) in indexes.iter_mut().enumerate() {
                idx.insert(vec![values[k].clone()], rid);
            }
        }
        JscanFixture {
            table,
            indexes,
            n,
            mods: mods.to_vec(),
        }
    }

    /// Evicts the cache (cold-start each measured run).
    pub fn cold(&self) {
        self.table.pool().clear();
    }

    /// Ground-truth ids for a predicate over `(c0.., id)`.
    pub fn truth(&self, pred: impl Fn(&[i64], i64) -> bool) -> Vec<i64> {
        (0..self.n)
            .filter(|&i| {
                let cols: Vec<i64> = self.mods.iter().map(|m| i % m).collect();
                pred(&cols, i)
            })
            .collect()
    }
}

/// Index scans a run's competition discarded.
pub fn discards(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::IndexDiscarded { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_consistently() {
        let f = JscanFixture::build(1000, &[10, 7], 10_000);
        assert_eq!(f.table.cardinality(), 1000);
        assert_eq!(f.indexes.len(), 3);
        let t = f.truth(|c, _| c[0] == 3 && c[1] == 3);
        // i ≡ 3 mod 70 → 15 values below 1000 (3, 73, ..., 983).
        assert_eq!(t.len(), 15);
    }
}

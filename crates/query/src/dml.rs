//! DML on the one statement path: `insert`, `delete_where` and
//! `update_where`. Victims of a restriction are located like any other
//! retrieval — [`CompiledPred::lower`] (which validates columns) → `bind_args`
//! → request — only with no indexes offered, so the optimizer runs a
//! Tscan (maintenance favours simplicity over retrieval optimization);
//! heap and index maintenance then run as load-time operations.

use std::sync::Arc;

use rdb_core::{OptimizeGoal, RetrievalRequest};
use rdb_storage::{Record, Rid, Value};

use crate::db::{index_key, unknown_column, Db};
use crate::error::QueryError;
use crate::expr::{CompiledPred, Expr};
use crate::options::QueryOptions;

impl Db {
    /// Inserts a row, maintaining all indexes. The row is validated against
    /// the table schema up front so shape errors come back typed
    /// ([`QueryError::Arity`], [`QueryError::TypeMismatch`]) instead of as
    /// storage-layer failures.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<(), QueryError> {
        let entry = self.table_mut(table)?;
        let schema = entry.heap.schema();
        if values.len() != schema.len() {
            return Err(QueryError::Arity {
                table: table.to_string(),
                expected: schema.len(),
                got: values.len(),
            });
        }
        for (col, value) in schema.columns().iter().zip(&values) {
            match value.value_type() {
                None if !col.nullable => {
                    return Err(QueryError::TypeMismatch {
                        table: table.to_string(),
                        column: col.name.clone(),
                        expected: col.ty,
                        got: None,
                    });
                }
                Some(ty) if ty != col.ty => {
                    return Err(QueryError::TypeMismatch {
                        table: table.to_string(),
                        column: col.name.clone(),
                        expected: col.ty,
                        got: Some(ty),
                    });
                }
                _ => {}
            }
        }
        let record = Record::new(values);
        let rid = entry.heap.insert(record.clone())?;
        for index in &mut entry.indexes {
            let key = index_key(index.key_columns(), &record);
            index.insert(key, rid);
        }
        Ok(())
    }

    /// RIDs of every row of `table` matching `predicate` under `opts`'
    /// bindings, by sequential scan on the database's default meter.
    fn locate_victims(
        &self,
        table: &str,
        predicate: &Expr,
        opts: &QueryOptions,
    ) -> Result<Vec<Rid>, QueryError> {
        let entry = self.table(table)?;
        let schema = entry.heap.schema();
        let pred = CompiledPred::lower(&[predicate], |c| schema.column_index(c))
            .map_err(|c| unknown_column(table, c))?;
        let pred = Arc::new(pred);
        let args = pred.bind_args(opts.params())?;
        let residual = pred.record_pred(&args);
        let request = RetrievalRequest::table_only(&entry.heap, residual, OptimizeGoal::TotalTime)
            .with_cost(self.cost.clone());
        let found = self.optimizer.run_traced(&request, None, &opts.tracer())?;
        Ok(found.rids())
    }

    /// Deletes every row of `table` matching the predicate (bound with
    /// `opts`' parameters), maintaining all indexes. Returns the number of
    /// rows deleted.
    pub fn delete_where(
        &mut self,
        table: &str,
        predicate: &Expr,
        opts: &QueryOptions,
    ) -> Result<usize, QueryError> {
        let victims = self.locate_victims(table, predicate, opts)?;
        let cost = self.cost.clone();
        let entry = self.table_mut(table)?;
        for &rid in &victims {
            let record = entry.heap.fetch(rid, &cost)?;
            for index in &mut entry.indexes {
                let key = index_key(index.key_columns(), &record);
                index.delete(&key, rid);
            }
            entry.heap.delete(rid)?;
        }
        Ok(victims.len())
    }

    /// Updates column `set_column` to `set_value` on every row matching
    /// the predicate (delete + reinsert, the classic index-safe
    /// implementation). Returns the number of rows updated.
    pub fn update_where(
        &mut self,
        table: &str,
        set_column: &str,
        set_value: Value,
        predicate: &Expr,
        opts: &QueryOptions,
    ) -> Result<usize, QueryError> {
        let col_idx = self
            .table(table)?
            .heap
            .schema()
            .column_index(set_column)
            .ok_or_else(|| unknown_column(table, set_column))?;
        let rids = self.locate_victims(table, predicate, opts)?;
        let cost = self.cost.clone();
        let entry = self.table_mut(table)?;
        // Every victim is read before the first is rewritten.
        let victims: Vec<(Rid, Record)> = rids
            .into_iter()
            .map(|rid| entry.heap.fetch(rid, &cost).map(|r| (rid, r)))
            .collect::<Result<_, _>>()?;
        let count = victims.len();
        for (rid, record) in victims {
            for index in &mut entry.indexes {
                let key = index_key(index.key_columns(), &record);
                index.delete(&key, rid);
            }
            entry.heap.delete(rid)?;
            let mut values = record.into_values();
            values[col_idx] = set_value.clone();
            let new_record = Record::new(values);
            let new_rid = entry.heap.insert(new_record.clone())?;
            for index in &mut entry.indexes {
                let key = index_key(index.key_columns(), &new_record);
                index.insert(key, new_rid);
            }
        }
        Ok(count)
    }
}

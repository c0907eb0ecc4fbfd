//! DML on the one statement path: `insert`, `delete_where` and
//! `update_where`. Victims of a restriction are located like any other
//! retrieval — resolve → `bind_args` → the request builder, with the
//! table's indexes offered, goal total-time — and run by the dynamic
//! optimizer (`Db::locate_victims` in `exec.rs`); heap and index
//! maintenance then run as load-time operations, in RID order.

use rdb_storage::{Record, Value};

use crate::db::{index_key, unknown_column, Db};
use crate::error::QueryError;
use crate::expr::Expr;
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
        let entry = self.table_mut(table)?;
        for (rid, record) in &victims {
            for index in &mut entry.indexes {
                let key = index_key(index.key_columns(), record);
                index.delete(&key, *rid);
            }
            entry.heap.delete(*rid)?;
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
        let victims = self.locate_victims(table, predicate, opts)?;
        let entry = self.table_mut(table)?;
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

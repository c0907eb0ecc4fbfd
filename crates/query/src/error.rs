//! Typed errors for the query layer.
//!
//! Every fallible `rdb-query` entry point returns [`QueryError`] so callers
//! can match on the failure class instead of string-scraping. Storage-layer
//! failures (including the simulation harness's injected I/O faults)
//! propagate untranslated inside [`QueryError::Storage`].

use std::fmt;

use rdb_storage::{StorageError, ValueType};

use crate::parser::ParseError;

/// Why a query-layer operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The SQL text did not parse; the payload says where and why.
    Parse(ParseError),
    /// A statement referenced a table that does not exist.
    UnknownTable(String),
    /// A statement referenced a column that does not exist in its table.
    UnknownColumn {
        /// Table that was searched.
        table: String,
        /// The missing column name.
        column: String,
    },
    /// An inserted value's type does not match the column's declared type.
    TypeMismatch {
        /// Table being written.
        table: String,
        /// Column whose type was violated.
        column: String,
        /// The column's declared type.
        expected: ValueType,
        /// The offending value's type; `None` means NULL hit a
        /// non-nullable column.
        got: Option<ValueType>,
    },
    /// An inserted row has the wrong number of values.
    Arity {
        /// Table being written.
        table: String,
        /// Columns in the table schema.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A host variable (`:name`) had no binding in the run's parameters.
    UnboundVar(String),
    /// The statement is well-formed but outside the supported dialect
    /// (e.g. an ambiguous unqualified column in a join, or a cross-table
    /// predicate the join layer cannot decompose). The payload says what.
    Unsupported(String),
    /// `create_table` for a name that already exists.
    DuplicateTable(String),
    /// The storage substrate failed (I/O fault, corrupt page, bad RID).
    Storage(StorageError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::UnknownTable(table) => write!(f, "no such table {table}"),
            QueryError::UnknownColumn { table, column } => {
                write!(f, "no such column {column} in {table}")
            }
            QueryError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => match got {
                Some(got) => write!(
                    f,
                    "column {column} of {table} expects {expected}, got {got}"
                ),
                None => write!(
                    f,
                    "column {column} of {table} is not nullable (expects {expected})"
                ),
            },
            QueryError::Arity {
                table,
                expected,
                got,
            } => write!(f, "table {table} has {expected} column(s), got {got} value(s)"),
            QueryError::UnboundVar(name) => write!(f, "unbound host variable :{name}"),
            QueryError::Unsupported(what) => write!(f, "unsupported: {what}"),
            QueryError::DuplicateTable(table) => write!(f, "table {table} already exists"),
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Parse(e) => Some(e),
            QueryError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_storage::FileId;

    #[test]
    fn displays_are_stable_and_specific() {
        assert_eq!(
            QueryError::UnknownColumn {
                table: "T".into(),
                column: "x".into()
            }
            .to_string(),
            "no such column x in T"
        );
        assert_eq!(
            QueryError::UnboundVar("A1".into()).to_string(),
            "unbound host variable :A1"
        );
        assert_eq!(
            QueryError::TypeMismatch {
                table: "T".into(),
                column: "x".into(),
                expected: ValueType::Int,
                got: Some(ValueType::Str),
            }
            .to_string(),
            "column x of T expects INT, got STR"
        );
    }

    #[test]
    fn storage_errors_convert_and_chain() {
        let inner = StorageError::InjectedFault {
            file: FileId(3),
            page: 7,
        };
        let e: QueryError = inner.clone().into();
        assert_eq!(e, QueryError::Storage(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}

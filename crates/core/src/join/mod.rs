//! Multi-table retrieval: the join layer raced as a competition.
//!
//! The paper's Section 2 derives the JOIN selectivity transformation —
//! a join predicate is just another restriction whose selectivity
//! composes with the per-table ones — and its dynamic optimizer treats
//! *every* access decision as a race between partially executed
//! candidates. This module extends that treatment from single-table
//! scans to two-table joins:
//!
//! * [`nested`] — naive nested-loop (always feasible; the guaranteed
//!   lane when no hash join is) and index-nested-loop (outer scan probing
//!   the inner side's B-tree per row).
//! * [`hash`] — build/probe hash join, spill-free: the build side is
//!   held as an in-memory value arena while both sides stream through
//!   the shared buffer pool. Its cost is known before it runs (both heaps
//!   once), which makes it the join's Tscan.
//! * [`merge`] — a Jscan-style cross-table RID-intersection join: both
//!   sides' join-key indexes are merged in key order producing `(left
//!   RID, right RID)` pairs *before* any heap row is fetched, exactly
//!   how Jscan intersects RID lists before its final fetch stage.
//! * [`estimate`] — planning-time cost/cardinality model (Section 2's
//!   transformation for equi-joins, the uniform inequality fraction of
//!   Repas et al. for non-equi ones) and the race's admission. Infallible
//!   by policy (rdb-lint F001): estimation never touches fallible storage.
//! * [`competition`] — [`run_join`](competition::run_join) is Section 3's
//!   two-stage competition: the speculative lanes (index-nested,
//!   merge-rid) race against the guaranteed lane's known cost under the
//!   paper's two kill rules, and the guaranteed lane runs only if none of
//!   them finishes first.
//!
//! Every lane assembles a matching pair's output row (the request's
//! [`output`](JoinRequest::output) columns) from the two records it
//! already holds, so a delivered pair is built once. Everything charges
//! through the request's [`SharedCost`] meter, so joins work under
//! per-session meters (`Db::session()` / `--threads N`).

pub mod competition;
pub mod estimate;
pub mod hash;
pub mod merge;
pub mod nested;

use std::fmt;
use std::sync::Arc;

use rdb_btree::BTree;
use rdb_storage::{HeapTable, Rid, SharedCost, Value};

use crate::request::RecordPred;

/// Which side of the join a table, record, or column belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SideId {
    /// The first (`FROM A, …`) table.
    Left,
    /// The second (`…, B`) table.
    Right,
}

impl SideId {
    /// The opposite side.
    pub fn other(self) -> SideId {
        match self {
            SideId::Left => SideId::Right,
            SideId::Right => SideId::Left,
        }
    }
}

impl fmt::Display for SideId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SideId::Left => "left",
            SideId::Right => "right",
        })
    }
}

/// The comparison joining the two sides' key columns. SQL semantics: a
/// NULL on either side never matches, under any operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinOp {
    /// `L = R` (the equi-join; hash and merge methods require it).
    Eq,
    /// `L <> R`.
    Ne,
    /// `L < R`.
    Lt,
    /// `L <= R`.
    Le,
    /// `L > R`.
    Gt,
    /// `L >= R`.
    Ge,
}

impl JoinOp {
    /// Evaluates `left OP right`. False when either side is NULL.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        let ord = left.cmp(right);
        match self {
            JoinOp::Eq => ord == std::cmp::Ordering::Equal,
            JoinOp::Ne => ord != std::cmp::Ordering::Equal,
            JoinOp::Lt => ord == std::cmp::Ordering::Less,
            JoinOp::Le => ord != std::cmp::Ordering::Greater,
            JoinOp::Gt => ord == std::cmp::Ordering::Greater,
            JoinOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }

    /// The operator seen from the other side: `L op R` ⇔ `R op.flip() L`.
    pub fn flip(self) -> JoinOp {
        match self {
            JoinOp::Eq => JoinOp::Eq,
            JoinOp::Ne => JoinOp::Ne,
            JoinOp::Lt => JoinOp::Gt,
            JoinOp::Le => JoinOp::Ge,
            JoinOp::Gt => JoinOp::Lt,
            JoinOp::Ge => JoinOp::Le,
        }
    }
}

impl fmt::Display for JoinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinOp::Eq => "=",
            JoinOp::Ne => "<>",
            JoinOp::Lt => "<",
            JoinOp::Le => "<=",
            JoinOp::Gt => ">",
            JoinOp::Ge => ">=",
        })
    }
}

/// A pair-level filter applied after the join comparison — extra
/// cross-table conjuncts beyond the driving one — over the left and the
/// right row's values.
pub type PairPred = Arc<dyn Fn(&[Value], &[Value]) -> bool + Send + Sync>;

/// One side of the join: the table, its join column, an optional B-tree
/// on that column, the side-local residual restriction, and the
/// planning-time estimate of rows surviving the residual.
pub struct JoinSide<'a> {
    /// The heap table.
    pub table: &'a HeapTable,
    /// Position of the join column in this side's schema.
    pub join_col: usize,
    /// A B-tree whose first key column is `join_col`, if one exists —
    /// enables index-nested-loop probes and the merge/RID-intersection
    /// method on this side.
    pub join_index: Option<&'a BTree>,
    /// This side's single-table restriction (always applied; `|_| true`
    /// when the query has none).
    pub residual: RecordPred,
    /// Estimated rows surviving `residual` (cardinality when
    /// unrestricted). Drives the planning-time cost model.
    pub est_rows: f64,
}

impl<'a> JoinSide<'a> {
    /// An unrestricted side: residual accepts everything, estimate is the
    /// table cardinality.
    pub fn new(table: &'a HeapTable) -> Self {
        JoinSide {
            table,
            join_col: 0,
            join_index: None,
            residual: Arc::new(|_| true),
            est_rows: table.cardinality() as f64,
        }
    }

    /// Sets the join column.
    pub fn on_column(mut self, join_col: usize) -> Self {
        self.join_col = join_col;
        self
    }

    /// Attaches a join-column index.
    pub fn with_index(mut self, tree: &'a BTree) -> Self {
        self.join_index = Some(tree);
        self
    }

    /// Sets the residual restriction and its estimated surviving rows.
    pub fn with_residual(mut self, residual: RecordPred, est_rows: f64) -> Self {
        self.residual = residual;
        self.est_rows = est_rows;
        self
    }
}

impl fmt::Debug for JoinSide<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinSide")
            .field("table", &self.table.name())
            .field("join_col", &self.join_col)
            .field("indexed", &self.join_index.is_some())
            .field("est_rows", &self.est_rows)
            .finish_non_exhaustive()
    }
}

/// A two-table join request: both sides, the driving comparison, an
/// optional extra pair filter, the delivered columns, a row limit, and
/// the cost meter every candidate charges.
pub struct JoinRequest<'a> {
    /// Left side.
    pub left: JoinSide<'a>,
    /// Right side.
    pub right: JoinSide<'a>,
    /// The driving cross-table comparison `left.join_col OP right.join_col`.
    pub op: JoinOp,
    /// Extra cross-table conjuncts, applied to every surviving pair.
    pub pair_filter: Option<PairPred>,
    /// The columns of every delivered [`JoinPair::row`], in order: each a
    /// side and a position in that side's records. The default is every
    /// left column, then every right column.
    pub output: Arc<[(SideId, usize)]>,
    /// Stop after this many pairs (models `LIMIT` / `EXISTS`).
    pub limit: Option<usize>,
    /// The meter all candidates charge (per-session under `--threads N`).
    pub cost: SharedCost,
}

impl<'a> JoinRequest<'a> {
    /// A request joining `left OP right` charging `cost`.
    pub fn new(left: JoinSide<'a>, right: JoinSide<'a>, op: JoinOp, cost: SharedCost) -> Self {
        let arity = |s: &JoinSide<'_>| s.table.schema().columns().len();
        let output = (0..arity(&left))
            .map(|i| (SideId::Left, i))
            .chain((0..arity(&right)).map(|i| (SideId::Right, i)))
            .collect();
        JoinRequest {
            left,
            right,
            op,
            pair_filter: None,
            output,
            limit: None,
            cost,
        }
    }

    /// Sets the delivered columns (see [`JoinRequest::output`]).
    pub fn with_output(mut self, output: Arc<[(SideId, usize)]>) -> Self {
        self.output = output;
        self
    }

    /// Adds an extra pair-level filter.
    pub fn with_pair_filter(mut self, filter: PairPred) -> Self {
        self.pair_filter = Some(filter);
        self
    }

    /// Caps the number of pairs delivered.
    pub fn with_limit(mut self, limit: Option<usize>) -> Self {
        self.limit = limit;
        self
    }

    /// The limit, or `usize::MAX` when unlimited.
    pub fn limit_or_max(&self) -> usize {
        self.limit.unwrap_or(usize::MAX)
    }
}

impl fmt::Debug for JoinRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinRequest")
            .field("left", &self.left)
            .field("right", &self.right)
            .field("op", &self.op)
            .field("limit", &self.limit)
            .finish_non_exhaustive()
    }
}

/// One delivered join pair: both RIDs and the output row, assembled by
/// the lane from the two records when the pair matched.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPair {
    /// RID of the left row.
    pub left_rid: Rid,
    /// RID of the right row.
    pub right_rid: Rid,
    /// The request's [`output`](JoinRequest::output) columns of the pair.
    pub row: Vec<Value>,
}

/// A join method plus its orientation — the competition's candidate
/// space covers both the method and the join order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinMethod {
    /// Naive nested loop with the given outer side. Always feasible:
    /// the guaranteed lane when no hash join is.
    NestedLoop {
        /// Which side drives the outer scan.
        outer: SideId,
    },
    /// Index nested loop: outer scan probes the inner side's join-column
    /// B-tree per row. Requires the inner side to be indexed.
    IndexNested {
        /// Which side drives the outer scan.
        outer: SideId,
    },
    /// Build/probe hash join. Requires an equi-join; the build side is
    /// held in memory (spill-free partitioning over the buffer pool).
    /// When feasible, the guaranteed lane.
    Hash {
        /// Which side is hashed into the build arena.
        build: SideId,
    },
    /// Jscan-style RID intersection: both join-column indexes merged in
    /// key order into `(left RID, right RID)` pairs, heap rows fetched
    /// only afterwards. Requires an equi-join and indexes on both sides.
    Merge,
}

impl JoinMethod {
    /// Stable human label, used in trace events and winner strings.
    pub fn label(&self) -> &'static str {
        self.strategy().trim_start_matches("join: ")
    }

    /// The winner string of a join this method won: `"join: "` and the
    /// [`label`](Self::label).
    pub fn strategy(&self) -> &'static str {
        use SideId::{Left, Right};
        match self {
            JoinMethod::NestedLoop { outer: Left } => "join: nested(outer=left)",
            JoinMethod::NestedLoop { outer: Right } => "join: nested(outer=right)",
            JoinMethod::IndexNested { outer: Left } => "join: index-nested(outer=left)",
            JoinMethod::IndexNested { outer: Right } => "join: index-nested(outer=right)",
            JoinMethod::Hash { build: Left } => "join: hash(build=left)",
            JoinMethod::Hash { build: Right } => "join: hash(build=right)",
            JoinMethod::Merge => "join: merge-rid",
        }
    }

    /// The phase name this method's work is attributed to in the trace.
    pub fn phase(&self) -> &'static str {
        match self {
            JoinMethod::NestedLoop { .. } => "join-nested",
            JoinMethod::IndexNested { .. } => "join-index-nested",
            JoinMethod::Hash { .. } => "join-hash",
            JoinMethod::Merge => "join-merge",
        }
    }
}

impl fmt::Display for JoinMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of a join competition (or a single forced method).
#[derive(Debug)]
pub struct JoinResult {
    /// The delivered pairs, in the winning method's delivery order.
    pub pairs: Vec<JoinPair>,
    /// Total cost-meter delta of the run.
    pub cost: f64,
    /// Winner description, e.g. `"join: hash(build=left)"`.
    pub strategy: &'static str,
}

/// Canonical hash of a join-key value, consistent with [`Value`]'s `Ord`:
/// values that compare `Equal` hash identically (`Int(2)` and
/// `Float(2.0)` coerce through `f64` bits, exactly as `Ord` coerces
/// through `total_cmp`). NULL never reaches this function — callers skip
/// NULL join keys before hashing.
pub fn join_key_hash(v: &Value) -> u64 {
    // FNV-1a over a type tag plus the canonical payload bytes.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    };
    match v {
        Value::Null => eat(0),
        Value::Int(i) => {
            eat(1);
            for b in (*i as f64).to_bits().to_le_bytes() {
                eat(b);
            }
        }
        Value::Float(x) => {
            eat(1);
            for b in x.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        Value::Str(s) => {
            eat(2);
            for b in s.as_bytes() {
                eat(*b);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_op_eval_matches_sql_null_semantics() {
        assert!(JoinOp::Eq.eval(&Value::Int(3), &Value::Int(3)));
        assert!(!JoinOp::Eq.eval(&Value::Null, &Value::Null));
        assert!(!JoinOp::Ne.eval(&Value::Null, &Value::Int(1)));
        assert!(JoinOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(JoinOp::Ge.eval(&Value::Int(2), &Value::Int(2)));
        assert!(!JoinOp::Gt.eval(&Value::Int(2), &Value::Int(2)));
    }

    #[test]
    fn join_op_flip_is_an_involution_and_swaps_sides() {
        let ops = [
            JoinOp::Eq,
            JoinOp::Ne,
            JoinOp::Lt,
            JoinOp::Le,
            JoinOp::Gt,
            JoinOp::Ge,
        ];
        for op in ops {
            assert_eq!(op.flip().flip(), op);
            for l in [-1i64, 0, 1] {
                for r in [-1i64, 0, 1] {
                    let (l, r) = (Value::Int(l), Value::Int(r));
                    assert_eq!(op.eval(&l, &r), op.flip().eval(&r, &l), "{op:?} {l:?} {r:?}");
                }
            }
        }
    }

    #[test]
    fn join_key_hash_agrees_with_ord_coercion() {
        // cmp == Equal must imply hash equality across Int/Float.
        assert_eq!(Value::Int(7).cmp(&Value::Float(7.0)), std::cmp::Ordering::Equal);
        assert_eq!(join_key_hash(&Value::Int(7)), join_key_hash(&Value::Float(7.0)));
        assert_ne!(join_key_hash(&Value::Int(7)), join_key_hash(&Value::Int(8)));
        assert_ne!(
            join_key_hash(&Value::Str("7".into())),
            join_key_hash(&Value::Int(7))
        );
    }
}

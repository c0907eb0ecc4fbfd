//! Boolean restriction trees with host variables.
//!
//! An [`Expr`] is the AST the parser (or a caller) builds at "compile
//! time", host variables unbound. The library evaluates it one way only:
//! [`CompiledPred::compile`] lowers it once against a schema (names →
//! positions, host variables → argument slots) and each run fills the
//! slots with [`CompiledPred::bind_args`]. Because binding precedes
//! optimizer invocation, every run re-derives index ranges from the
//! *actual* values — the prerequisite for the paper's per-run dynamic
//! strategy choice (`AGE >= :A1` resolving differently for 0 and 200).
//! The name-based bind/eval/range reference the differential proptest
//! compares against lives in this file's test module only.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use rdb_btree::{KeyBound, KeyRange};
use rdb_core::{KeyPred, RecordPred};
use rdb_storage::{Record, Schema, Value};

use crate::error::QueryError;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    pub(crate) fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if lhs.is_null() || rhs.is_null() {
            return false; // SQL-style: comparisons with NULL are not TRUE
        }
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A literal value.
    Literal(Value),
    /// A named host variable, bound per run.
    HostVar(String),
}

/// A Boolean restriction over one table's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Always true (empty WHERE clause).
    True,
    /// `column op scalar`.
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal or host variable.
        rhs: Scalar,
    },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column name.
        column: String,
        /// Lower bound.
        lo: Scalar,
        /// Upper bound.
        hi: Scalar,
    },
    /// `left op right` comparing two columns (the join-predicate form;
    /// also legal within one table). NULL on either side never matches.
    ColCmp {
        /// Left column name (possibly `TABLE.COLUMN`-qualified).
        left: String,
        /// Operator.
        op: CmpOp,
        /// Right column name (possibly `TABLE.COLUMN`-qualified).
        right: String,
    },
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// `column op value` with a literal.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op,
            rhs: Scalar::Literal(value.into()),
        }
    }

    /// `column op :var` with a host variable.
    pub fn cmp_var(column: impl Into<String>, op: CmpOp, var: impl Into<String>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op,
            rhs: Scalar::HostVar(var.into()),
        }
    }

    /// Conjunction helper.
    pub fn and(exprs: Vec<Expr>) -> Expr {
        Expr::And(exprs)
    }
}

/// Positional argument values for one execution of a [`CompiledPred`],
/// produced by [`CompiledPred::bind_args`]. Shared (not cloned) into the
/// run's record/key predicates.
pub type PredArgs = Arc<[Value]>;

/// A restriction lowered against a fixed schema: column names resolved to
/// value positions and host variables interned into dense argument slots.
///
/// This is the binding-independent half of predicate work, split out so a
/// cached plan skeleton can amortize it. Lowering runs once at resolve
/// time; each execution then fills a flat argument vector
/// with [`bind_args`](CompiledPred::bind_args) — one map lookup per
/// distinct host variable — instead of deep-cloning the tree per run, and
/// evaluation indexes records directly instead of re-resolving column
/// names at every node for every row.
#[derive(Debug, Clone)]
pub struct CompiledPred {
    root: Node,
    /// Host-variable names in argument-slot order (first occurrence in
    /// depth-first tree order, deduplicated).
    params: ParamNames,
}

/// Host-variable names interned end to end in one string: two
/// allocations however many variables a statement binds.
#[derive(Debug, Clone, Default)]
struct ParamNames {
    text: String,
    /// Where each name ends in `text`.
    ends: Vec<usize>,
}

impl ParamNames {
    fn iter(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.text[start..end])
    }

    /// The argument slot of `name`, interning it on first sight.
    fn slot(&mut self, name: &str) -> usize {
        if let Some(slot) = self.iter().position(|p| p == name) {
            return slot;
        }
        self.text.push_str(name);
        self.ends.push(self.text.len());
        self.ends.len() - 1
    }
}

/// Right-hand side of a lowered comparison: a literal kept in place or a
/// slot into the run's argument vector.
#[derive(Debug, Clone)]
enum Arg {
    Lit(Value),
    Var(usize),
}

impl Arg {
    fn get<'a>(&'a self, args: &'a [Value]) -> &'a Value {
        match self {
            Arg::Lit(v) => v,
            Arg::Var(i) => &args[*i],
        }
    }
}

/// [`Expr`] with column names resolved to positions and scalars lowered
/// to [`Arg`]s. Mirrors the `Expr` variants one-to-one, so lowering is a
/// plain map and the test-only reference evaluator stays comparable
/// node for node.
#[derive(Debug, Clone)]
enum Node {
    True,
    Cmp { col: usize, op: CmpOp, rhs: Arg },
    Between { col: usize, lo: Arg, hi: Arg },
    ColCmp { left: usize, op: CmpOp, right: usize },
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
}

impl CompiledPred {
    /// Lowers `expr` against `schema`.
    ///
    /// # Panics
    /// If the expression references a column missing from the schema —
    /// the statement pipeline lowers through `CompiledPred::lower`
    /// instead, which reports it.
    pub fn compile(expr: &Expr, schema: &Schema) -> CompiledPred {
        CompiledPred::lower(&[expr], |c| schema.column_index(c))
            .unwrap_or_else(|c| panic!("unknown column {c}"))
    }

    /// Lowers the conjunction of `conjuncts` straight from the AST,
    /// resolving each column name to a position with `column` (`True` for
    /// none, the conjunct itself for one). `Err` names the first column,
    /// in tree order, that `column` cannot resolve.
    pub(crate) fn lower<'e>(
        conjuncts: &[&'e Expr],
        column: impl Fn(&str) -> Option<usize>,
    ) -> Result<CompiledPred, &'e str> {
        let mut params = ParamNames::default();
        let root = match conjuncts {
            [] => Node::True,
            [e] => lower_node(e, &column, &mut params)?,
            es => Node::And(
                es.iter()
                    .map(|e| lower_node(e, &column, &mut params))
                    .collect::<Result<_, _>>()?,
            ),
        };
        Ok(CompiledPred { root, params })
    }

    /// Resolves this run's parameter values into a positional argument
    /// vector, erroring on the first host variable in tree order that has
    /// no binding.
    pub fn bind_args(&self, params: &HashMap<String, Value>) -> Result<PredArgs, QueryError> {
        let mut out = Vec::with_capacity(self.params.ends.len());
        for name in self.params.iter() {
            out.push(
                params
                    .get(name)
                    .cloned()
                    .ok_or_else(|| QueryError::UnboundVar(name.to_owned()))?,
            );
        }
        Ok(out.into())
    }

    /// Evaluates against a full record. `args` must come from
    /// [`bind_args`](Self::bind_args) on this same predicate.
    pub fn matches(&self, args: &[Value], record: &Record) -> bool {
        self.root.eval(args, record.values())
    }

    /// The per-run record predicate: a closure over this shared tree and
    /// the run's arguments — no tree or schema clone per execution.
    pub fn record_pred(self: &Arc<Self>, args: &PredArgs) -> RecordPred {
        let pred = Arc::clone(self);
        let args = Arc::clone(args);
        Arc::new(move |record: &Record| pred.root.eval(&args, record.values()))
    }

    /// The per-run key predicate. Only meaningful on a predicate whose
    /// positions index the key tuple — i.e. the output of
    /// [`remap_columns`](Self::remap_columns) with a record→key mapping.
    pub fn key_pred(self: &Arc<Self>, args: &PredArgs) -> KeyPred {
        let pred = Arc::clone(self);
        let args = Arc::clone(args);
        Arc::new(move |key: &[Value]| pred.root.eval(&args, key))
    }

    /// Rewrites every column position through `map` (e.g. record position
    /// → index-key position). Returns `None` when some referenced column
    /// has no mapping — the caller's signal that evaluating this
    /// predicate over the mapped tuples alone would be illegal.
    pub fn remap_columns(&self, map: impl Fn(usize) -> Option<usize>) -> Option<CompiledPred> {
        Some(CompiledPred {
            root: self.root.remap(&map)?,
            params: self.params.clone(),
        })
    }

    /// The key range this predicate implies for an index whose leading key
    /// is column `col`: top-level conjuncts (and the predicate itself)
    /// constrain the range; OR/NOT subtrees contribute nothing
    /// (conservatively `all`).
    pub fn range_for(&self, args: &[Value], col: usize) -> KeyRange {
        self.root.range_for(args, col)
    }

    /// The key range this predicate implies for a **multi-column** index
    /// on `key_cols` (record positions, in key order): equality
    /// constraints pin a leading prefix, then one range constraint closes
    /// the bound.
    pub fn range_for_composite(&self, args: &[Value], key_cols: &[usize]) -> KeyRange {
        composite_range(key_cols.len(), |i| self.range_for(args, key_cols[i]))
    }

    /// Number of top-level disjuncts when the restriction is OR-connected
    /// (`None` otherwise) — the arms the union scan would need one index
    /// range each for.
    pub fn disjuncts(&self) -> Option<usize> {
        match &self.root {
            Node::Or(ds) => Some(ds.len()),
            _ => None,
        }
    }

    /// [`range_for`](Self::range_for) of top-level disjunct `d` alone
    /// (`all` when there is no such disjunct).
    pub fn disjunct_range(&self, args: &[Value], d: usize, col: usize) -> KeyRange {
        match &self.root {
            Node::Or(ds) if d < ds.len() => ds[d].range_for(args, col),
            _ => KeyRange::all(),
        }
    }
}

/// Combines per-column ranges into the range of a multi-column index
/// whose `i`-th key column has single-column range `col_range(i)`:
/// equality constraints on a leading prefix extend the bound, then one
/// range constraint on the next column closes it. For example, with an
/// index on `(region, age)`, `region = 3 AND age >= 30` yields the range
/// `[(3, 30) .. (3, +inf))` — i.e. lo `(3, 30)`, hi prefix `(3)`.
fn composite_range(key_len: usize, col_range: impl Fn(usize) -> KeyRange) -> KeyRange {
    if key_len == 1 {
        // One key column: its range is the index's, with no prefix to copy.
        return col_range(0);
    }
    let mut prefix: Vec<Value> = Vec::new();
    let mut range = KeyRange::all();
    for i in 0..key_len {
        let col_range = col_range(i);
        // Equality pins the column: both bounds inclusive on one value.
        let eq_value = match (&col_range.lo, &col_range.hi) {
            (KeyBound::Inclusive(lo), KeyBound::Inclusive(hi)) if lo.len() == 1 && lo == hi => {
                Some(lo[0].clone())
            }
            _ => None,
        };
        if let Some(v) = eq_value {
            prefix.push(v);
            // Fully pinned so far: the whole prefix is the range.
            range = KeyRange {
                lo: KeyBound::Inclusive(prefix.clone()),
                hi: KeyBound::Inclusive(prefix.clone()),
            };
            continue;
        }
        // First non-equality column: extend the prefix with its bounds
        // and stop — later columns cannot tighten a B-tree range.
        let extend = |bound: &KeyBound| -> KeyBound {
            match bound {
                KeyBound::Unbounded if prefix.is_empty() => KeyBound::Unbounded,
                KeyBound::Unbounded => KeyBound::Inclusive(prefix.clone()),
                KeyBound::Inclusive(vs) => {
                    let mut full = prefix.clone();
                    full.extend(vs.iter().cloned());
                    KeyBound::Inclusive(full)
                }
                KeyBound::Exclusive(vs) => {
                    let mut full = prefix.clone();
                    full.extend(vs.iter().cloned());
                    KeyBound::Exclusive(full)
                }
            }
        };
        range = KeyRange {
            lo: extend(&col_range.lo),
            hi: extend(&col_range.hi),
        };
        break;
    }
    range
}

fn lower_node<'e>(
    expr: &'e Expr,
    column: &impl Fn(&str) -> Option<usize>,
    params: &mut ParamNames,
) -> Result<Node, &'e str> {
    fn slot(s: &Scalar, params: &mut ParamNames) -> Arg {
        match s {
            Scalar::Literal(v) => Arg::Lit(v.clone()),
            Scalar::HostVar(name) => Arg::Var(params.slot(name)),
        }
    }
    let col = |c: &'e str| column(c).ok_or(c);
    let all = |es: &'e [Expr], params: &mut ParamNames| {
        es.iter()
            .map(|e| lower_node(e, column, params))
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(match expr {
        Expr::True => Node::True,
        Expr::Cmp { column, op, rhs } => Node::Cmp {
            col: col(column)?,
            op: *op,
            rhs: slot(rhs, params),
        },
        Expr::Between { column, lo, hi } => Node::Between {
            col: col(column)?,
            lo: slot(lo, params),
            hi: slot(hi, params),
        },
        Expr::ColCmp { left, op, right } => Node::ColCmp {
            left: col(left)?,
            op: *op,
            right: col(right)?,
        },
        Expr::And(es) => Node::And(all(es, params)?),
        Expr::Or(es) => Node::Or(all(es, params)?),
        Expr::Not(e) => Node::Not(Box::new(lower_node(e, column, params)?)),
    })
}

impl Node {
    fn eval(&self, args: &[Value], values: &[Value]) -> bool {
        match self {
            Node::True => true,
            Node::Cmp { col, op, rhs } => op.eval(&values[*col], rhs.get(args)),
            Node::Between { col, lo, hi } => {
                let v = &values[*col];
                !v.is_null() && v >= lo.get(args) && v <= hi.get(args)
            }
            Node::ColCmp { left, op, right } => op.eval(&values[*left], &values[*right]),
            Node::And(ns) => ns.iter().all(|n| n.eval(args, values)),
            Node::Or(ns) => ns.iter().any(|n| n.eval(args, values)),
            Node::Not(n) => !n.eval(args, values),
        }
    }

    fn remap(&self, map: &impl Fn(usize) -> Option<usize>) -> Option<Node> {
        Some(match self {
            Node::True => Node::True,
            Node::Cmp { col, op, rhs } => Node::Cmp {
                col: map(*col)?,
                op: *op,
                rhs: rhs.clone(),
            },
            Node::Between { col, lo, hi } => Node::Between {
                col: map(*col)?,
                lo: lo.clone(),
                hi: hi.clone(),
            },
            Node::ColCmp { left, op, right } => Node::ColCmp {
                left: map(*left)?,
                op: *op,
                right: map(*right)?,
            },
            Node::And(ns) => Node::And(ns.iter().map(|n| n.remap(map)).collect::<Option<_>>()?),
            Node::Or(ns) => Node::Or(ns.iter().map(|n| n.remap(map)).collect::<Option<_>>()?),
            Node::Not(n) => Node::Not(Box::new(n.remap(map)?)),
        })
    }

    fn range_for(&self, args: &[Value], col: usize) -> KeyRange {
        let mut range = KeyRange::all();
        self.tighten_range(args, col, &mut range);
        range
    }

    fn tighten_range(&self, args: &[Value], col: usize, range: &mut KeyRange) {
        match self {
            Node::Cmp { col: c, op, rhs } if *c == col => {
                let v = rhs.get(args);
                match op {
                    CmpOp::Eq => {
                        tighten_lo(range, KeyBound::Inclusive(vec![v.clone()]));
                        tighten_hi(range, KeyBound::Inclusive(vec![v.clone()]));
                    }
                    CmpOp::Ge => tighten_lo(range, KeyBound::Inclusive(vec![v.clone()])),
                    CmpOp::Gt => tighten_lo(range, KeyBound::Exclusive(vec![v.clone()])),
                    CmpOp::Le => tighten_hi(range, KeyBound::Inclusive(vec![v.clone()])),
                    CmpOp::Lt => tighten_hi(range, KeyBound::Exclusive(vec![v.clone()])),
                    CmpOp::Ne => {}
                }
            }
            Node::Between { col: c, lo, hi } if *c == col => {
                tighten_lo(range, KeyBound::Inclusive(vec![lo.get(args).clone()]));
                tighten_hi(range, KeyBound::Inclusive(vec![hi.get(args).clone()]));
            }
            Node::And(ns) => {
                for n in ns {
                    n.tighten_range(args, col, range);
                }
            }
            // OR / NOT / other columns: no safe tightening.
            _ => {}
        }
    }
}

fn tighten_lo(range: &mut KeyRange, candidate: KeyBound) {
    let better = match (&range.lo, &candidate) {
        (KeyBound::Unbounded, _) => true,
        (KeyBound::Inclusive(a) | KeyBound::Exclusive(a), KeyBound::Inclusive(b)) => b > a,
        (KeyBound::Inclusive(a), KeyBound::Exclusive(b)) => b >= a,
        (KeyBound::Exclusive(a), KeyBound::Exclusive(b)) => b > a,
        (_, KeyBound::Unbounded) => false,
    };
    if better {
        range.lo = candidate;
    }
}

fn tighten_hi(range: &mut KeyRange, candidate: KeyBound) {
    let better = match (&range.hi, &candidate) {
        (KeyBound::Unbounded, _) => true,
        (KeyBound::Inclusive(a) | KeyBound::Exclusive(a), KeyBound::Inclusive(b)) => b < a,
        (KeyBound::Inclusive(a), KeyBound::Exclusive(b)) => b <= a,
        (KeyBound::Exclusive(a), KeyBound::Exclusive(b)) => b < a,
        (_, KeyBound::Unbounded) => false,
    };
    if better {
        range.hi = candidate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_storage::{Column, ValueType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
        ])
    }

    fn rec(a: i64, b: i64) -> Record {
        Record::new(vec![Value::Int(a), Value::Int(b)])
    }

    /// The name-based reference evaluator: bind host variables by cloning
    /// the tree, then evaluate / derive ranges by column *name*. This was
    /// the library's evaluator before [`CompiledPred`]; it survives here
    /// as the independent implementation the differential proptest pins
    /// the compiled one against.
    impl Scalar {
        fn bound(&self, params: &HashMap<String, Value>) -> Result<Value, QueryError> {
            match self {
                Scalar::Literal(v) => Ok(v.clone()),
                Scalar::HostVar(name) => params
                    .get(name)
                    .cloned()
                    .ok_or_else(|| QueryError::UnboundVar(name.clone())),
            }
        }
    }

    impl Expr {
        /// Substitutes host variables with this run's parameter values.
        fn bind(&self, params: &HashMap<String, Value>) -> Result<Expr, QueryError> {
            let bind_all = |es: &[Expr]| es.iter().map(|e| e.bind(params)).collect::<Result<_, _>>();
            Ok(match self {
                Expr::True => Expr::True,
                Expr::Cmp { column, op, rhs } => Expr::Cmp {
                    column: column.clone(),
                    op: *op,
                    rhs: Scalar::Literal(rhs.bound(params)?),
                },
                Expr::Between { column, lo, hi } => Expr::Between {
                    column: column.clone(),
                    lo: Scalar::Literal(lo.bound(params)?),
                    hi: Scalar::Literal(hi.bound(params)?),
                },
                Expr::ColCmp { .. } => self.clone(),
                Expr::And(es) => Expr::And(bind_all(es)?),
                Expr::Or(es) => Expr::Or(bind_all(es)?),
                Expr::Not(e) => Expr::Not(Box::new(e.bind(params)?)),
            })
        }

        /// Evaluates a **bound** expression against a record, resolving
        /// column names through `schema` at every node.
        fn eval(&self, schema: &Schema, record: &Record) -> bool {
            let idx = |c: &str| schema.column_index(c).expect("known column");
            let lit = |s: &Scalar| match s {
                Scalar::Literal(v) => v.clone(),
                Scalar::HostVar(_) => panic!("eval of unbound expression"),
            };
            match self {
                Expr::True => true,
                Expr::Cmp { column, op, rhs } => op.eval(&record[idx(column)], &lit(rhs)),
                Expr::Between { column, lo, hi } => {
                    let v = &record[idx(column)];
                    !v.is_null() && *v >= lit(lo) && *v <= lit(hi)
                }
                Expr::ColCmp { left, op, right } => op.eval(&record[idx(left)], &record[idx(right)]),
                Expr::And(es) => es.iter().all(|e| e.eval(schema, record)),
                Expr::Or(es) => es.iter().any(|e| e.eval(schema, record)),
                Expr::Not(e) => !e.eval(schema, record),
            }
        }

        /// The key range a bound expression implies for an index whose
        /// leading key column is `column`.
        fn range_for(&self, column: &str) -> KeyRange {
            let mut range = KeyRange::all();
            self.tighten_range(column, &mut range);
            range
        }

        fn tighten_range(&self, column: &str, range: &mut KeyRange) {
            match self {
                Expr::Cmp {
                    column: c,
                    op,
                    rhs: Scalar::Literal(v),
                } if c == column => match op {
                    CmpOp::Eq => {
                        tighten_lo(range, KeyBound::Inclusive(vec![v.clone()]));
                        tighten_hi(range, KeyBound::Inclusive(vec![v.clone()]));
                    }
                    CmpOp::Ge => tighten_lo(range, KeyBound::Inclusive(vec![v.clone()])),
                    CmpOp::Gt => tighten_lo(range, KeyBound::Exclusive(vec![v.clone()])),
                    CmpOp::Le => tighten_hi(range, KeyBound::Inclusive(vec![v.clone()])),
                    CmpOp::Lt => tighten_hi(range, KeyBound::Exclusive(vec![v.clone()])),
                    CmpOp::Ne => {}
                },
                Expr::Between {
                    column: c,
                    lo: Scalar::Literal(lo),
                    hi: Scalar::Literal(hi),
                } if c == column => {
                    tighten_lo(range, KeyBound::Inclusive(vec![lo.clone()]));
                    tighten_hi(range, KeyBound::Inclusive(vec![hi.clone()]));
                }
                Expr::And(es) => {
                    for e in es {
                        e.tighten_range(column, range);
                    }
                }
                // OR / NOT / other columns: no safe tightening.
                _ => {}
            }
        }

        /// Composite range by column name, through the shared
        /// prefix-extension helper.
        fn range_for_composite(&self, columns: &[&str]) -> KeyRange {
            composite_range(columns.len(), |i| self.range_for(columns[i]))
        }
    }

    /// A literal-only expression through the library's one evaluator.
    fn compiled(e: &Expr, s: &Schema) -> (Arc<CompiledPred>, PredArgs) {
        let c = Arc::new(CompiledPred::compile(e, s));
        let args = c.bind_args(&HashMap::new()).unwrap();
        (c, args)
    }

    fn holds(e: &Expr, s: &Schema, r: &Record) -> bool {
        let (c, args) = compiled(e, s);
        c.matches(&args, r)
    }

    /// Key range of `e` on an index over `cols` of the `(a, b)` schema.
    fn range_of(e: &Expr, cols: &[usize]) -> KeyRange {
        let (c, args) = compiled(e, &schema());
        c.range_for_composite(&args, cols)
    }

    #[test]
    fn bind_substitutes_host_vars() {
        let e = Expr::cmp_var("a", CmpOp::Ge, "x");
        let mut params = HashMap::new();
        params.insert("x".to_string(), Value::Int(5));
        let bound = e.bind(&params).unwrap();
        assert_eq!(bound, Expr::cmp("a", CmpOp::Ge, 5));
        assert!(bound.eval(&schema(), &rec(7, 0)));
        assert!(!bound.eval(&schema(), &rec(3, 0)));
    }

    #[test]
    fn bind_fails_on_missing_var() {
        let e = Expr::cmp_var("a", CmpOp::Eq, "missing");
        assert_eq!(
            e.bind(&HashMap::new()),
            Err(QueryError::UnboundVar("missing".into()))
        );
    }

    #[test]
    fn eval_logical_operators() {
        let s = schema();
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 5),
            Expr::Or(vec![
                Expr::cmp("b", CmpOp::Eq, 1),
                Expr::cmp("b", CmpOp::Eq, 2),
            ]),
        ]);
        assert!(holds(&e, &s, &rec(5, 2)));
        assert!(!holds(&e, &s, &rec(5, 3)));
        assert!(!holds(&e, &s, &rec(4, 1)));
        let n = Expr::Not(Box::new(e));
        assert!(holds(&n, &s, &rec(4, 1)));
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = Schema::new(vec![Column::nullable("a", ValueType::Int)]);
        let r = Record::new(vec![Value::Null]);
        assert!(!holds(&Expr::cmp("a", CmpOp::Eq, 0), &s, &r));
        assert!(!holds(&Expr::cmp("a", CmpOp::Ne, 0), &s, &r));
        let between = Expr::Between {
            column: "a".into(),
            lo: Scalar::Literal(Value::Int(0)),
            hi: Scalar::Literal(Value::Int(9)),
        };
        assert!(!holds(&between, &s, &r));
    }

    #[test]
    fn col_cmp_compares_two_columns_with_null_semantics() {
        let s = Schema::new(vec![
            Column::nullable("a", ValueType::Int),
            Column::nullable("b", ValueType::Int),
        ]);
        let e = Expr::ColCmp {
            left: "a".into(),
            op: CmpOp::Lt,
            right: "b".into(),
        };
        let (c, args) = compiled(&e, &s);
        assert!(c.matches(&args, &rec(1, 2)));
        assert!(!c.matches(&args, &rec(2, 2)));
        assert!(!c.matches(&args, &Record::new(vec![Value::Null, Value::Int(5)])));
        // Including under a column remap.
        let swapped = Arc::new(
            c.remap_columns(|col| Some(1 - col)).expect("total map"),
        );
        assert!(swapped.matches(&args, &rec(2, 1)), "columns swapped");
        // ColCmp never tightens an index range.
        assert_eq!(c.range_for(&args, 0), KeyRange::all());
    }

    #[test]
    fn range_extraction_from_conjuncts() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 10),
            Expr::cmp("a", CmpOp::Lt, 20),
            Expr::cmp("b", CmpOp::Eq, 5),
        ]);
        let r = range_of(&e, &[0]);
        assert!(r.contains(&[Value::Int(10)]));
        assert!(r.contains(&[Value::Int(19)]));
        assert!(!r.contains(&[Value::Int(20)]));
        assert!(!r.contains(&[Value::Int(9)]));
        let rb = range_of(&e, &[1]);
        assert!(rb.contains(&[Value::Int(5)]));
        assert!(!rb.contains(&[Value::Int(6)]));
    }

    #[test]
    fn tighter_of_two_bounds_wins() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 10),
            Expr::cmp("a", CmpOp::Gt, 10),
        ]);
        let r = range_of(&e, &[0]);
        assert!(!r.contains(&[Value::Int(10)]), "Gt 10 is tighter than Ge 10");
        assert!(r.contains(&[Value::Int(11)]));
    }

    #[test]
    fn or_contributes_no_range() {
        let e = Expr::Or(vec![
            Expr::cmp("a", CmpOp::Eq, 1),
            Expr::cmp("a", CmpOp::Eq, 100),
        ]);
        assert_eq!(range_of(&e, &[0]), KeyRange::all());
        // ... but each disjunct alone does, which is what the union scan
        // builds its arms from.
        let (c, args) = compiled(&e, &schema());
        assert_eq!(c.disjuncts(), Some(2));
        assert!(c.disjunct_range(&args, 1, 0).contains(&[Value::Int(100)]));
        assert!(!c.disjunct_range(&args, 1, 0).contains(&[Value::Int(1)]));
        assert_eq!(c.disjunct_range(&args, 0, 1), KeyRange::all(), "no constraint on b");
        assert_eq!(compiled(&Expr::True, &schema()).0.disjuncts(), None);
    }

    #[test]
    fn between_sets_closed_range() {
        let e = Expr::Between {
            column: "a".into(),
            lo: Scalar::Literal(Value::Int(3)),
            hi: Scalar::Literal(Value::Int(7)),
        };
        let r = range_of(&e, &[0]);
        assert!(r.contains(&[Value::Int(3)]) && r.contains(&[Value::Int(7)]));
        assert!(!r.contains(&[Value::Int(2)]) && !r.contains(&[Value::Int(8)]));
    }

    #[test]
    fn composite_range_eq_prefix_plus_range() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Eq, 3),
            Expr::cmp("b", CmpOp::Ge, 30),
            Expr::cmp("b", CmpOp::Le, 32),
        ]);
        let r = range_of(&e, &[0, 1]);
        assert!(r.contains(&[Value::Int(3), Value::Int(30)]));
        assert!(r.contains(&[Value::Int(3), Value::Int(32)]));
        assert!(!r.contains(&[Value::Int(3), Value::Int(33)]));
        assert!(!r.contains(&[Value::Int(2), Value::Int(31)]));
        assert!(!r.contains(&[Value::Int(4), Value::Int(31)]));
    }

    #[test]
    fn composite_range_eq_prefix_only() {
        let e = Expr::cmp("a", CmpOp::Eq, 7);
        let r = range_of(&e, &[0, 1]);
        assert!(r.contains(&[Value::Int(7), Value::Int(0)]));
        assert!(r.contains(&[Value::Int(7), Value::Int(999)]));
        assert!(!r.contains(&[Value::Int(8), Value::Int(0)]));
    }

    #[test]
    fn composite_range_half_open_second_column() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Eq, 1),
            Expr::cmp("b", CmpOp::Gt, 10),
        ]);
        let r = range_of(&e, &[0, 1]);
        assert!(!r.contains(&[Value::Int(1), Value::Int(10)]));
        assert!(r.contains(&[Value::Int(1), Value::Int(11)]));
        assert!(!r.contains(&[Value::Int(2), Value::Int(11)]));
    }

    #[test]
    fn composite_range_unconstrained_leading_gives_first_column_range() {
        // Only the second column is constrained: a B-tree on (a, b) cannot
        // use it; the range falls back to the first column's (here: all).
        let e = Expr::cmp("b", CmpOp::Eq, 5);
        let r = range_of(&e, &[0, 1]);
        assert_eq!(r, KeyRange::all());
    }

    #[test]
    fn key_pred_requires_coverage() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 1),
            Expr::cmp("b", CmpOp::Eq, 2),
        ]);
        let (c, args) = compiled(&e, &schema());
        // Key on (a) alone: b is not in the key, so no key predicate.
        assert!(c.remap_columns(|col| (col == 0).then_some(0)).is_none());
        // Key on (a, b): positions coincide with the record's.
        let kp = Arc::new(c.remap_columns(Some).expect("covered")).key_pred(&args);
        assert!(kp(&[Value::Int(5), Value::Int(2)]));
        assert!(!kp(&[Value::Int(5), Value::Int(3)]));
    }

    #[test]
    fn record_pred_matches_eval() {
        let s = schema();
        let e = Expr::cmp("b", CmpOp::Le, 4);
        let (c, args) = compiled(&e, &s);
        let p = c.record_pred(&args);
        for r in [rec(0, 4), rec(0, 5)] {
            assert_eq!(p(&r), e.eval(&s, &r));
        }
        assert!(p(&rec(0, 4)) && !p(&rec(0, 5)));
    }

    #[test]
    fn compiled_interns_repeated_host_vars() {
        let e = Expr::And(vec![
            Expr::cmp_var("a", CmpOp::Ge, "x"),
            Expr::cmp_var("b", CmpOp::Le, "x"),
            Expr::cmp_var("a", CmpOp::Le, "y"),
        ]);
        let c = CompiledPred::compile(&e, &schema());
        let mut params = HashMap::new();
        params.insert("x".to_string(), Value::Int(3));
        params.insert("y".to_string(), Value::Int(9));
        let args = c.bind_args(&params).unwrap();
        assert_eq!(args.len(), 2, "x appears twice but gets one slot");
        assert!(c.matches(&args, &rec(5, 2)));
        assert!(!c.matches(&args, &rec(10, 2)));
    }

    #[test]
    fn compiled_bind_args_errors_like_bind() {
        let e = Expr::And(vec![
            Expr::cmp_var("a", CmpOp::Ge, "x"),
            Expr::cmp_var("b", CmpOp::Le, "missing"),
        ]);
        let c = CompiledPred::compile(&e, &schema());
        let mut params = HashMap::new();
        params.insert("x".to_string(), Value::Int(3));
        assert_eq!(
            c.bind_args(&params).unwrap_err(),
            QueryError::UnboundVar("missing".into())
        );
    }

    #[test]
    fn compiled_remap_requires_full_coverage() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 1),
            Expr::cmp("b", CmpOp::Eq, 2),
        ]);
        let c = CompiledPred::compile(&e, &schema());
        // Key on (b) alone: column a has no key position.
        assert!(c.remap_columns(|col| (col == 1).then_some(0)).is_none());
        // Key on (b, a): both map.
        let remapped = Arc::new(
            c.remap_columns(|col| Some(if col == 1 { 0 } else { 1 }))
                .expect("covered"),
        );
        let kp = remapped.key_pred(&c.bind_args(&HashMap::new()).unwrap());
        assert!(kp(&[Value::Int(2), Value::Int(5)]));
        assert!(!kp(&[Value::Int(3), Value::Int(5)]));
    }

    /// The load-bearing equivalence: lowering + positional evaluation and
    /// range derivation agree with the reference's bind + name-based
    /// evaluation on arbitrary expressions, records and bindings — the
    /// contract that lets every statement kind run on [`CompiledPred`]
    /// alone.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// LCG step (the vendored proptest has no recursive strategies, so
        /// expression shapes come from a seeded generator instead).
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *state >> 33
        }

        fn gen_scalar(state: &mut u64) -> Scalar {
            match next(state) % 4 {
                0 => Scalar::HostVar("x".to_string()),
                1 => Scalar::HostVar("y".to_string()),
                _ => Scalar::Literal(Value::Int(next(state) as i64 % 20 - 5)),
            }
        }

        fn gen_expr(state: &mut u64, depth: u32) -> Expr {
            const OPS: [CmpOp; 6] = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            fn column(state: &mut u64) -> String {
                if next(state).is_multiple_of(2) { "a" } else { "b" }.to_string()
            }
            let kind = if depth == 0 { next(state) % 3 } else { next(state) % 6 };
            match kind {
                0 => Expr::True,
                1 => Expr::Cmp {
                    column: column(state),
                    op: OPS[(next(state) % 6) as usize],
                    rhs: gen_scalar(state),
                },
                2 => Expr::Between {
                    column: column(state),
                    lo: gen_scalar(state),
                    hi: gen_scalar(state),
                },
                3 | 4 => {
                    let n = 1 + next(state) % 3;
                    let es = (0..n).map(|_| gen_expr(state, depth - 1)).collect();
                    if kind == 3 {
                        Expr::And(es)
                    } else {
                        Expr::Or(es)
                    }
                }
                _ => Expr::Not(Box::new(gen_expr(state, depth - 1))),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256 })]

            #[test]
            fn compiled_agrees_with_bound_expr(
                seed in any::<u64>(),
                x in -5i64..15,
                y in -5i64..15,
                records in prop::collection::vec((-5i64..15, -5i64..15), 1..8),
            ) {
                let mut state = seed;
                let e = gen_expr(&mut state, 3);
                let s = schema();
                let mut params = HashMap::new();
                params.insert("x".to_string(), Value::Int(x));
                params.insert("y".to_string(), Value::Int(y));
                let bound = e.bind(&params).unwrap();
                let compiled = Arc::new(CompiledPred::compile(&e, &s));
                let args = compiled.bind_args(&params).unwrap();
                let rp = compiled.record_pred(&args);
                for &(a, b) in &records {
                    let r = rec(a, b);
                    prop_assert_eq!(bound.eval(&s, &r), compiled.matches(&args, &r));
                    prop_assert_eq!(bound.eval(&s, &r), rp(&r));
                }
                // Range derivation: single-column and composite, both
                // column orders.
                prop_assert_eq!(bound.range_for("a"), compiled.range_for(&args, 0));
                prop_assert_eq!(bound.range_for("b"), compiled.range_for(&args, 1));
                prop_assert_eq!(
                    bound.range_for_composite(&["a", "b"]),
                    compiled.range_for_composite(&args, &[0, 1])
                );
                prop_assert_eq!(
                    bound.range_for_composite(&["b", "a"]),
                    compiled.range_for_composite(&args, &[1, 0])
                );
                // Per-disjunct ranges (the union scan's arms) agree with
                // the reference's range of each bound disjunct.
                if let Expr::Or(ds) = &bound {
                    prop_assert_eq!(compiled.disjuncts(), Some(ds.len()));
                    for (i, d) in ds.iter().enumerate() {
                        prop_assert_eq!(d.range_for("a"), compiled.disjunct_range(&args, i, 0));
                        prop_assert_eq!(d.range_for("b"), compiled.disjunct_range(&args, i, 1));
                    }
                } else {
                    prop_assert_eq!(compiled.disjuncts(), None);
                }
                // Key predicates over a (b, a) key must agree too: the
                // reference evaluates by name over a key-shaped schema.
                let key_schema = Schema::new(vec![
                    Column::new("b", ValueType::Int),
                    Column::new("a", ValueType::Int),
                ]);
                let remapped = compiled
                    .remap_columns(|col| Some(if col == 1 { 0 } else { 1 }))
                    .map(Arc::new)
                    .expect("(b, a) covers both columns");
                let ckp = remapped.key_pred(&args);
                for &(a, b) in &records {
                    let key = [Value::Int(b), Value::Int(a)];
                    prop_assert_eq!(bound.eval(&key_schema, &Record::new(key.to_vec())), ckp(&key));
                }
            }
        }
    }
}

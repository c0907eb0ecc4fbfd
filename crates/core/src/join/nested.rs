//! Nested-loop join candidates: the naive rescan loop (always feasible,
//! the competition's guaranteed fallback) and the index-nested-loop
//! variant that probes the inner side's join-column B-tree per outer row.
//!
//! Both are resumable: [`JoinScan::step`] consumes a bounded batch of
//! work units and returns, so the competition can interleave candidates
//! on the proportional scheduler exactly as Jscan interleaves index
//! scans — here one unit is one outer row, one inner row, or one inner
//! index entry with its fetch. All storage access is fallible (rdb-lint
//! F002); a fault surfaces as `Err` and the competition decides whether
//! to absorb it.
//!
//! Heap rows are decoded once, into scratch records the scan owns
//! ([`HeapScan::next_into`]); residual, NULL-key and pair checks run on
//! those borrows, and the only copy is of a delivered pair's output
//! columns, into its row. The naive loop's inner rescan, which looks at
//! every inner row once per outer row, allocates nothing for the rows it
//! rejects.

use rdb_btree::{KeyBound, KeyRange, RangeScan};
use rdb_storage::{HeapScan, Record, Rid, StorageError, Value};

use super::{JoinOp, JoinPair, JoinRequest, JoinSide, SideId};

/// Outcome of one scheduling quantum of a join candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStepOutcome {
    /// More work remains.
    Progress,
    /// The candidate has produced its complete pair set (or reached the
    /// request limit).
    Done,
}

/// The resumable-candidate contract shared by every join method.
pub trait JoinScan {
    /// Runs one scheduling quantum. Fallible: storage faults propagate.
    ///
    /// The quantum contract: a step consumes at most `batch` work units —
    /// one unit is one heap row scanned or fetched, or one index entry
    /// consumed, i.e. whatever the method charges the meter for — plus at
    /// most one *atomic* part that may not span quanta: a probe row's
    /// chain walk (hash), an equal-key group (merge). The competition
    /// evaluates its kill rules between steps, so a lane that did more
    /// per step would spend past the paper's thresholds unseen.
    fn step(&mut self, batch: usize) -> Result<JoinStepOutcome, StorageError>;

    /// Fraction of this candidate's input consumed, in `[0, 1]` — the
    /// denominator of the competition's cost projection.
    fn progress(&self) -> f64;

    /// Takes ownership of the produced pairs (winner path).
    fn take_pairs(&mut self) -> Vec<JoinPair>;
}

/// Evaluates the full pair predicate: driving comparison on the join
/// columns plus the optional extra pair filter. Both rows must already
/// have passed their side residuals.
pub(crate) fn pair_matches(req: &JoinRequest<'_>, left: &[Value], right: &[Value]) -> bool {
    let (Some(l), Some(r)) = (left.get(req.left.join_col), right.get(req.right.join_col)) else {
        return false;
    };
    req.op.eval(l, r) && req.pair_filter.as_ref().is_none_or(|f| f(left, right))
}

/// Orients an (outer, inner) pair of anything — records, references,
/// RIDs — into the request's (left, right) order.
pub(crate) fn orient<T>(outer: SideId, outer_item: T, inner_item: T) -> (T, T) {
    match outer {
        SideId::Left => (outer_item, inner_item),
        SideId::Right => (inner_item, outer_item),
    }
}

/// A matching pair's delivered row: the request's output columns, copied
/// out of the two rows the lane holds.
pub(crate) fn output_row(req: &JoinRequest<'_>, left: &[Value], right: &[Value]) -> Vec<Value> {
    req.output
        .iter()
        .map(|&(side, i)| {
            let row = match side {
                SideId::Left => left,
                SideId::Right => right,
            };
            row.get(i).cloned().unwrap_or(Value::Null)
        })
        .collect()
}

/// The step every lane ends in: checks the pair on borrows and, only on
/// a match, builds its output row into an owned [`JoinPair`].
pub(crate) fn push_if_match(
    req: &JoinRequest<'_>,
    outer: SideId,
    (outer_rid, outer_row): (Rid, &[Value]),
    (inner_rid, inner_row): (Rid, &[Value]),
    pairs: &mut Vec<JoinPair>,
) {
    let (left, right) = orient(outer, outer_row, inner_row);
    if pair_matches(req, left, right) {
        let (left_rid, right_rid) = orient(outer, outer_rid, inner_rid);
        pairs.push(JoinPair {
            left_rid,
            right_rid,
            row: output_row(req, left, right),
        });
    }
}

/// Naive nested loop: full outer scan, full inner rescan per surviving
/// outer row. Never needs an index, never needs an equi-join — the
/// guaranteed lane of a join no hash join can run.
pub struct NestedLoopScan<'a, 'r> {
    req: &'r JoinRequest<'a>,
    outer: SideId,
    outer_scan: HeapScan,
    /// The outer row under the cursor; meaningful while `inner` is open.
    outer_rec: Record,
    /// The surviving outer row's RID and its inner rescan cursor.
    inner: Option<(Rid, HeapScan)>,
    /// The inner row under the rescan cursor.
    inner_rec: Record,
    pairs: Vec<JoinPair>,
    done: bool,
}

impl<'a, 'r> NestedLoopScan<'a, 'r> {
    /// A nested loop driven by `outer`.
    pub fn new(req: &'r JoinRequest<'a>, outer: SideId) -> Self {
        let outer_scan = outer_side(req, outer).table.scan();
        NestedLoopScan {
            req,
            outer,
            outer_scan,
            outer_rec: Record::default(),
            inner: None,
            inner_rec: Record::default(),
            pairs: Vec::new(),
            done: false,
        }
    }
}

fn outer_side<'r, 'a>(req: &'r JoinRequest<'a>, outer: SideId) -> &'r JoinSide<'a> {
    match outer {
        SideId::Left => &req.left,
        SideId::Right => &req.right,
    }
}

impl JoinScan for NestedLoopScan<'_, '_> {
    fn step(&mut self, batch: usize) -> Result<JoinStepOutcome, StorageError> {
        if self.done {
            return Ok(JoinStepOutcome::Done);
        }
        let o = outer_side(self.req, self.outer);
        let i = outer_side(self.req, self.outer.other());
        let cost = &self.req.cost;
        let limit = self.req.limit_or_max();
        for _ in 0..batch.max(1) {
            if self.pairs.len() >= limit {
                self.done = true;
                return Ok(JoinStepOutcome::Done);
            }
            match &mut self.inner {
                None => match self.outer_scan.next_into(o.table, cost, &mut self.outer_rec)? {
                    None => {
                        self.done = true;
                        return Ok(JoinStepOutcome::Done);
                    }
                    Some(rid) => {
                        if (o.residual)(&self.outer_rec) {
                            self.inner = Some((rid, i.table.scan()));
                        }
                    }
                },
                Some((orid, inner)) => match inner.next_into(i.table, cost, &mut self.inner_rec)? {
                    None => {
                        self.inner = None;
                    }
                    Some(irid) => {
                        if (i.residual)(&self.inner_rec) {
                            push_if_match(
                                self.req,
                                self.outer,
                                (*orid, self.outer_rec.values()),
                                (irid, self.inner_rec.values()),
                                &mut self.pairs,
                            );
                        }
                    }
                },
            }
        }
        Ok(JoinStepOutcome::Progress)
    }

    fn progress(&self) -> f64 {
        let o = outer_side(self.req, self.outer);
        let i = outer_side(self.req, self.outer.other());
        let outer_pages = o.table.page_count().max(1) as f64;
        let inner = self
            .inner
            .as_ref()
            .map(|(_, s)| s.progress(i.table))
            .unwrap_or(0.0);
        (self.outer_scan.progress(o.table) + inner / outer_pages).min(1.0)
    }

    fn take_pairs(&mut self) -> Vec<JoinPair> {
        std::mem::take(&mut self.pairs)
    }
}

/// The index probe range on the inner side's join column for one outer
/// value `v`: all inner keys `x` with `v VIEW x`, where `VIEW` is the
/// request operator seen from the outer side.
pub(crate) fn probe_range(view: JoinOp, v: &rdb_storage::Value) -> KeyRange {
    match view {
        JoinOp::Eq => KeyRange::eq(v.clone()),
        JoinOp::Ne => KeyRange::all(),
        // v < x  ⇒  x ∈ (v, ∞)
        JoinOp::Lt => KeyRange {
            lo: KeyBound::exclusive(v.clone()),
            hi: KeyBound::Unbounded,
        },
        // v <= x  ⇒  x ∈ [v, ∞)
        JoinOp::Le => KeyRange::at_least(v.clone()),
        // v > x  ⇒  x ∈ (-∞, v)
        JoinOp::Gt => KeyRange {
            lo: KeyBound::Unbounded,
            hi: KeyBound::exclusive(v.clone()),
        },
        // v >= x  ⇒  x ∈ (-∞, v]
        JoinOp::Ge => KeyRange::at_most(v.clone()),
    }
}

/// Index nested loop (dumbdb's `IndexJoinScan` shape, rebuilt on the
/// fallibility split): the outer heap scan drives; each surviving outer
/// row descends the inner side's join-column B-tree for its probe range
/// and fetches the matching inner rows. Every delivered pair is
/// re-verified against the actual record values — the index is an
/// accelerator, never the source of truth.
pub struct IndexNestedScan<'a, 'r> {
    req: &'r JoinRequest<'a>,
    outer: SideId,
    /// The operator as seen from the outer side (`v VIEW inner_key`).
    view: JoinOp,
    outer_scan: HeapScan,
    /// The outer row under the cursor; meaningful while `probe` is open.
    outer_rec: Record,
    /// The surviving outer row's RID and its in-flight index probe.
    probe: Option<(Rid, RangeScan)>,
    /// The inner row the probe last fetched.
    inner_rec: Record,
    pairs: Vec<JoinPair>,
    done: bool,
}

impl<'a, 'r> IndexNestedScan<'a, 'r> {
    /// An index nested loop driven by `outer`. The inner side must carry
    /// a join-column index; callers check [`super::estimate::feasible`].
    pub fn new(req: &'r JoinRequest<'a>, outer: SideId) -> Self {
        let view = match outer {
            SideId::Left => req.op,
            SideId::Right => req.op.flip(),
        };
        IndexNestedScan {
            req,
            outer,
            view,
            outer_scan: outer_side(req, outer).table.scan(),
            outer_rec: Record::default(),
            probe: None,
            inner_rec: Record::default(),
            pairs: Vec::new(),
            done: false,
        }
    }
}

impl JoinScan for IndexNestedScan<'_, '_> {
    fn step(&mut self, batch: usize) -> Result<JoinStepOutcome, StorageError> {
        if self.done {
            return Ok(JoinStepOutcome::Done);
        }
        let o = outer_side(self.req, self.outer);
        let i = outer_side(self.req, self.outer.other());
        let tree = i
            .join_index
            .ok_or(StorageError::Corrupt("index-nested-loop without inner index"))?;
        let cost = &self.req.cost;
        let limit = self.req.limit_or_max();
        for _ in 0..batch.max(1) {
            if self.pairs.len() >= limit {
                self.done = true;
                return Ok(JoinStepOutcome::Done);
            }
            match &mut self.probe {
                None => match self.outer_scan.next_into(o.table, cost, &mut self.outer_rec)? {
                    None => {
                        self.done = true;
                        return Ok(JoinStepOutcome::Done);
                    }
                    Some(rid) => {
                        let v = self.outer_rec.get(o.join_col).filter(|v| !v.is_null());
                        // NULL never joins; skip the probe entirely.
                        if let Some(v) = v.filter(|_| (o.residual)(&self.outer_rec)) {
                            let probe = tree.range_scan(probe_range(self.view, v), cost);
                            self.probe = Some((rid, probe));
                        }
                    }
                },
                Some((orid, probe)) => match probe.next_rid(tree, cost)? {
                    None => {
                        self.probe = None;
                    }
                    Some(irid) => {
                        i.table.fetch_into(irid, cost, &mut self.inner_rec)?;
                        if (i.residual)(&self.inner_rec) {
                            push_if_match(
                                self.req,
                                self.outer,
                                (*orid, self.outer_rec.values()),
                                (irid, self.inner_rec.values()),
                                &mut self.pairs,
                            );
                        }
                    }
                },
            }
        }
        Ok(JoinStepOutcome::Progress)
    }

    fn progress(&self) -> f64 {
        let o = outer_side(self.req, self.outer);
        self.outer_scan.progress(o.table)
    }

    fn take_pairs(&mut self) -> Vec<JoinPair> {
        std::mem::take(&mut self.pairs)
    }
}

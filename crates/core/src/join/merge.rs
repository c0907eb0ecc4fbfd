//! The Jscan-style cross-table RID-intersection join.
//!
//! Jscan's insight is to intersect *RID lists* from multiple index scans
//! before touching the heap; this candidate applies the same shape across
//! tables: both sides' join-column B-trees are merged in key order,
//! producing `(left RID, right RID)` pairs for every equal-key group —
//! no heap page is read during the merge. Only then are the distinct
//! matched RIDs fetched (per side, in RID order — the same Cardenas-model
//! final stage as Jscan's), residuals applied, and surviving pairs
//! emitted.
//!
//! Requires an equi-join with indexes on both join columns. NULL keys
//! (which sort first in the B-tree order) are skipped on both cursors.
//!
//! One work unit of [`JoinScan::step`] is one index entry consumed, one
//! row fetched, or one pending pair assembled. Every entry counts against
//! the step's budget, including those an equal-key group pulls in; the
//! group itself is atomic (it never spans quanta), so a step overshoots
//! its batch by at most one group — on a PK–FK join where every key
//! matches, the merge still hands control back every few entries instead
//! of running to its end inside one quantum. Fetched rows are decoded
//! into a scratch record and kept only when they pass their side's
//! residual.

use std::collections::BTreeMap;

use rdb_btree::{BTree, KeyRange, RangeScan};
use rdb_storage::{Record, Rid, StorageError, Value};

use super::nested::{push_if_match, JoinScan, JoinStepOutcome};
use super::{JoinPair, JoinRequest, SideId};

enum Phase {
    /// Merging the two index scans into RID pairs.
    Merge,
    /// Fetching distinct matched left rows (RID order).
    FetchLeft,
    /// Fetching distinct matched right rows (RID order).
    FetchRight,
    /// Assembling surviving pairs in merge order.
    Emit,
    Done,
}

/// One side's merge cursor: the index scan plus a one-entry peek buffer.
struct Cursor {
    scan: RangeScan,
    peek: Option<(Value, Rid)>,
    consumed: u64,
    exhausted: bool,
}

impl Cursor {
    fn new(tree: &BTree, cost: &rdb_storage::CostMeter) -> Self {
        Cursor {
            scan: tree.range_scan(KeyRange::all(), cost),
            peek: None,
            consumed: 0,
            exhausted: false,
        }
    }

    /// Ensures the peek slot holds the next non-NULL-key entry. Returns
    /// the number of index entries consumed doing so.
    fn fill(
        &mut self,
        tree: &BTree,
        cost: &rdb_storage::CostMeter,
    ) -> Result<u64, StorageError> {
        let mut used = 0;
        while self.peek.is_none() && !self.exhausted {
            match self.scan.next(tree, cost)? {
                None => self.exhausted = true,
                Some((mut key, rid)) => {
                    used += 1;
                    self.consumed += 1;
                    let k = key.swap_remove(0);
                    // NULL sorts first and never joins — skip.
                    if !k.is_null() {
                        self.peek = Some((k, rid));
                    }
                }
            }
        }
        Ok(used)
    }
}

/// The RID-intersection join candidate.
pub struct MergeJoinScan<'a, 'r> {
    req: &'r JoinRequest<'a>,
    left: Cursor,
    right: Cursor,
    /// RID pairs from the merge, in key order (the delivery order).
    pending: Vec<(Rid, Rid)>,
    /// Fetched rows that passed their side residual; a missing entry
    /// means the row was fetched and rejected.
    lrecs: BTreeMap<Rid, Record>,
    rrecs: BTreeMap<Rid, Record>,
    /// Distinct RIDs to fetch, in RID order (built when the merge ends).
    lfetch: Vec<Rid>,
    rfetch: Vec<Rid>,
    fetch_pos: usize,
    emit_pos: usize,
    phase: Phase,
    /// The row under the fetch cursor, decoded in place.
    scratch: Record,
    pairs: Vec<JoinPair>,
}

impl<'a, 'r> MergeJoinScan<'a, 'r> {
    /// A RID-intersection join. Both sides must carry join-column
    /// indexes; callers check [`super::estimate::feasible`].
    pub fn new(req: &'r JoinRequest<'a>) -> Result<Self, StorageError> {
        let (Some(lt), Some(rt)) = (req.left.join_index, req.right.join_index) else {
            return Err(StorageError::Corrupt("merge join without both indexes"));
        };
        Ok(MergeJoinScan {
            req,
            left: Cursor::new(lt, &req.cost),
            right: Cursor::new(rt, &req.cost),
            pending: Vec::new(),
            lrecs: BTreeMap::new(),
            rrecs: BTreeMap::new(),
            lfetch: Vec::new(),
            rfetch: Vec::new(),
            fetch_pos: 0,
            emit_pos: 0,
            phase: Phase::Merge,
            scratch: Record::default(),
            pairs: Vec::new(),
        })
    }

    /// Collects the full equal-key group on one cursor (the peeked entry
    /// plus every following entry with the same key) and the number of
    /// index entries consumed refilling the peek slot on the way.
    fn collect_group(
        cursor: &mut Cursor,
        tree: &BTree,
        cost: &rdb_storage::CostMeter,
        key: &Value,
    ) -> Result<(Vec<Rid>, u64), StorageError> {
        let mut group = Vec::new();
        let mut used = 0;
        loop {
            match cursor.peek.take() {
                Some((k, rid)) if k.cmp(key) == std::cmp::Ordering::Equal => {
                    group.push(rid);
                    used += cursor.fill(tree, cost)?;
                }
                other => {
                    cursor.peek = other;
                    return Ok((group, used));
                }
            }
        }
    }

    fn finish_merge(&mut self) {
        let mut lfetch: Vec<Rid> = self.pending.iter().map(|&(l, _)| l).collect();
        lfetch.sort_unstable();
        lfetch.dedup();
        let mut rfetch: Vec<Rid> = self.pending.iter().map(|&(_, r)| r).collect();
        rfetch.sort_unstable();
        rfetch.dedup();
        self.lfetch = lfetch;
        self.rfetch = rfetch;
        self.fetch_pos = 0;
        self.phase = Phase::FetchLeft;
    }
}

impl JoinScan for MergeJoinScan<'_, '_> {
    fn step(&mut self, batch: usize) -> Result<JoinStepOutcome, StorageError> {
        let cost = &self.req.cost;
        let limit = self.req.limit_or_max();
        let mut budget = batch.max(1) as i64;
        while budget > 0 {
            match self.phase {
                Phase::Merge => {
                    // Both were checked at construction; the fallible
                    // re-check keeps this scan panic-free by policy.
                    let lt = self
                        .req
                        .left
                        .join_index
                        .ok_or(StorageError::Corrupt("merge join without both indexes"))?;
                    let rt = self
                        .req
                        .right
                        .join_index
                        .ok_or(StorageError::Corrupt("merge join without both indexes"))?;
                    budget -= self.left.fill(lt, cost)? as i64;
                    budget -= self.right.fill(rt, cost)? as i64;
                    let (Some((lk, _)), Some((rk, _))) = (&self.left.peek, &self.right.peek)
                    else {
                        self.finish_merge();
                        continue;
                    };
                    match lk.cmp(rk) {
                        std::cmp::Ordering::Less => {
                            self.left.peek = None;
                        }
                        std::cmp::Ordering::Greater => {
                            self.right.peek = None;
                        }
                        std::cmp::Ordering::Equal => {
                            // Equal-key group: cross product of both
                            // sides' RIDs for this key. Collected
                            // atomically — a group never spans quanta —
                            // but its entries are paid for.
                            let key = lk.clone();
                            let (lgroup, lused) =
                                Self::collect_group(&mut self.left, lt, cost, &key)?;
                            let (rgroup, rused) =
                                Self::collect_group(&mut self.right, rt, cost, &key)?;
                            budget -= (lused + rused) as i64;
                            cost.charge_rid_ops((lgroup.len() * rgroup.len()) as u64);
                            for &l in &lgroup {
                                for &r in &rgroup {
                                    self.pending.push((l, r));
                                }
                            }
                        }
                    }
                }
                Phase::FetchLeft => match self.lfetch.get(self.fetch_pos) {
                    None => {
                        self.fetch_pos = 0;
                        self.phase = Phase::FetchRight;
                    }
                    Some(&rid) => {
                        self.fetch_pos += 1;
                        budget -= 1;
                        self.req.left.table.fetch_into(rid, cost, &mut self.scratch)?;
                        if (self.req.left.residual)(&self.scratch) {
                            self.lrecs.insert(rid, std::mem::take(&mut self.scratch));
                        }
                    }
                },
                Phase::FetchRight => match self.rfetch.get(self.fetch_pos) {
                    None => {
                        self.phase = Phase::Emit;
                    }
                    Some(&rid) => {
                        self.fetch_pos += 1;
                        budget -= 1;
                        self.req.right.table.fetch_into(rid, cost, &mut self.scratch)?;
                        if (self.req.right.residual)(&self.scratch) {
                            self.rrecs.insert(rid, std::mem::take(&mut self.scratch));
                        }
                    }
                },
                Phase::Emit => {
                    if self.pairs.len() >= limit {
                        self.phase = Phase::Done;
                        return Ok(JoinStepOutcome::Done);
                    }
                    match self.pending.get(self.emit_pos) {
                        None => {
                            self.phase = Phase::Done;
                            return Ok(JoinStepOutcome::Done);
                        }
                        Some(&(lrid, rrid)) => {
                            self.emit_pos += 1;
                            budget -= 1;
                            if let (Some(l), Some(r)) =
                                (self.lrecs.get(&lrid), self.rrecs.get(&rrid))
                            {
                                // The indexes said the keys match;
                                // re-verify on the actual rows plus any
                                // extra pair filter.
                                push_if_match(
                                    self.req,
                                    SideId::Left,
                                    (lrid, l.values()),
                                    (rrid, r.values()),
                                    &mut self.pairs,
                                );
                            }
                        }
                    }
                }
                Phase::Done => return Ok(JoinStepOutcome::Done),
            }
        }
        Ok(JoinStepOutcome::Progress)
    }

    fn progress(&self) -> f64 {
        let ltotal = self
            .req
            .left
            .join_index
            .map(|t| t.len())
            .unwrap_or(0)
            .max(1) as f64;
        let rtotal = self
            .req
            .right
            .join_index
            .map(|t| t.len())
            .unwrap_or(0)
            .max(1) as f64;
        let merge = ((self.left.consumed + self.right.consumed) as f64 / (ltotal + rtotal))
            .min(1.0);
        match self.phase {
            Phase::Merge => merge * 0.5,
            Phase::Done => 1.0,
            _ => {
                let total = (self.lfetch.len() + self.rfetch.len() + self.pending.len()).max(1);
                let done = match self.phase {
                    Phase::FetchLeft => self.fetch_pos,
                    Phase::FetchRight => self.lfetch.len() + self.fetch_pos,
                    Phase::Emit => self.lfetch.len() + self.rfetch.len() + self.emit_pos,
                    _ => 0,
                };
                0.5 + 0.5 * (done as f64 / total as f64)
            }
        }
    }

    fn take_pairs(&mut self) -> Vec<JoinPair> {
        std::mem::take(&mut self.pairs)
    }
}

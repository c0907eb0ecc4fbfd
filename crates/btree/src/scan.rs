//! Resumable range scans over the leaf level.
//!
//! A [`RangeScan`] holds only node ids and positions, never references into
//! the tree, so a scan strategy can park it between scheduling quanta —
//! exactly what the paper's competition controller needs when it advances
//! several index scans "simultaneously with proportional speed".
//!
//! # Fault handling
//!
//! Scans read index pages through the buffer pool's fallible path, so an
//! armed [`rdb_storage::FaultPolicy`] can kill a descent or a leaf
//! transition. `open` stays infallible for ergonomic call sites: a fault
//! during the initial descent is *deferred* — stored in the cursor and
//! returned by the first [`RangeScan::next`] call. After any error the
//! cursor is dead (`next` returns `Ok(None)` thereafter).

use rdb_storage::{CostMeter, Rid, StorageError, Value};

use crate::key::KeyRange;
use crate::node::{Entry, Node, NodeId};
use crate::tree::BTree;

/// A resumable cursor over all index entries in a key range, in key order.
#[derive(Debug, Clone)]
pub struct RangeScan {
    range: KeyRange,
    leaf: Option<NodeId>,
    pos: usize,
    entered_leaf: bool,
    done: bool,
    /// A fault caught during `open`'s descent, surfaced by the first
    /// `next` call (the deferred-open-error pattern).
    pending_err: Option<StorageError>,
}

impl RangeScan {
    /// A cursor that reports `err` on the first `next` call.
    fn deferred(range: KeyRange, err: StorageError) -> RangeScan {
        RangeScan {
            range,
            leaf: None,
            pos: 0,
            entered_leaf: false,
            done: false,
            pending_err: Some(err),
        }
    }

    /// Descends to the first leaf that can contain entries in `range`,
    /// charging the descent path. A fault during the descent is deferred
    /// to the first [`RangeScan::next`] call.
    pub(crate) fn open(tree: &BTree, range: KeyRange, cost: &CostMeter) -> RangeScan {
        if range.is_trivially_empty() || tree.is_empty() {
            return RangeScan {
                range,
                leaf: None,
                pos: 0,
                entered_leaf: false,
                done: true,
                pending_err: None,
            };
        }
        let mut id = tree.root;
        loop {
            if let Err(e) = tree.try_touch(id, cost) {
                return Self::deferred(range, e);
            }
            let node = match tree.try_node(id) {
                Ok(n) => n,
                Err(e) => return Self::deferred(range, e),
            };
            match node {
                Node::Internal(node) => {
                    // First child that may contain a key satisfying lo: count
                    // of separators that fail the lower bound.
                    let first = node
                        .seps
                        .partition_point(|s| !range.satisfies_lo(&s.key));
                    match node.children.get(first) {
                        Some(child) => id = *child,
                        None => {
                            return Self::deferred(
                                range,
                                StorageError::Corrupt("internal child/separator mismatch"),
                            )
                        }
                    }
                }
                Node::Leaf(leaf) => {
                    let pos = leaf
                        .entries
                        .partition_point(|e| !range.satisfies_lo(&e.key));
                    tree.charge_entries(pos as u64, cost);
                    return RangeScan {
                        range,
                        leaf: Some(id),
                        pos,
                        entered_leaf: true,
                        done: false,
                        pending_err: None,
                    };
                }
            }
        }
    }

    /// True once the scan has delivered its last entry (or died on a
    /// fault).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The range being scanned.
    pub fn range(&self) -> &KeyRange {
        &self.range
    }

    /// Next entry in key order, `Ok(None)` at the end of the range, or
    /// `Err` if a storage fault killed the scan (the cursor is then dead).
    pub fn next(
        &mut self,
        tree: &BTree,
        cost: &CostMeter,
    ) -> Result<Option<(Vec<Value>, Rid)>, StorageError> {
        Ok(self.step(tree, cost)?.map(|e| (e.key.clone(), e.rid)))
    }

    /// [`RangeScan::next`] for callers that want only the RID: the same
    /// step and charges, without copying the key.
    pub fn next_rid(
        &mut self,
        tree: &BTree,
        cost: &CostMeter,
    ) -> Result<Option<Rid>, StorageError> {
        Ok(self.step(tree, cost)?.map(|e| e.rid))
    }

    /// Advances one entry and lends it from the tree.
    fn step<'t>(
        &mut self,
        tree: &'t BTree,
        cost: &CostMeter,
    ) -> Result<Option<&'t Entry>, StorageError> {
        if let Some(e) = self.pending_err.take() {
            self.done = true;
            return Err(e);
        }
        if self.done {
            return Ok(None);
        }
        loop {
            let leaf_id = match self.leaf {
                Some(id) => id,
                None => {
                    self.done = true;
                    return Ok(None);
                }
            };
            if !self.entered_leaf {
                if let Err(e) = tree.try_touch(leaf_id, cost) {
                    self.done = true;
                    return Err(e);
                }
                self.entered_leaf = true;
            }
            let leaf = match tree.try_node(leaf_id).and_then(Node::try_as_leaf) {
                Ok(l) => l,
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            };
            if let Some(entry) = leaf.entries.get(self.pos) {
                self.pos += 1;
                tree.charge_entries(1, cost);
                if !self.range.satisfies_hi(&entry.key) {
                    self.done = true;
                    return Ok(None);
                }
                debug_assert!(
                    self.range.satisfies_lo(&entry.key),
                    "scan produced entry below lower bound"
                );
                return Ok(Some(entry));
            }
            self.leaf = leaf.next;
            self.pos = 0;
            self.entered_leaf = false;
        }
    }
}

/// A resumable **descending** cursor over all index entries in a key
/// range, in reverse key order.
///
/// The leaf chain links forward only (as in most production B-trees), so
/// each leaf-to-leaf transition re-descends from the root to the
/// predecessor leaf — O(height) page touches per leaf boundary, honestly
/// charged. Within a leaf, iteration is free of extra descents.
#[derive(Debug, Clone)]
pub struct RangeScanRev {
    range: KeyRange,
    leaf: Option<NodeId>,
    /// Next position to deliver within the leaf, plus one (0 = exhausted).
    pos_plus_one: usize,
    done: bool,
    /// A fault caught during `open`'s descent, surfaced by the first
    /// `next` call.
    pending_err: Option<StorageError>,
}

impl RangeScanRev {
    /// A cursor that reports `err` on the first `next` call.
    fn deferred(range: KeyRange, err: StorageError) -> RangeScanRev {
        RangeScanRev {
            range,
            leaf: None,
            pos_plus_one: 0,
            done: false,
            pending_err: Some(err),
        }
    }

    /// Descends to the last leaf that can contain entries in `range`,
    /// charging the descent path. A fault during the descent is deferred
    /// to the first [`RangeScanRev::next`] call.
    pub(crate) fn open(tree: &BTree, range: KeyRange, cost: &CostMeter) -> RangeScanRev {
        if range.is_trivially_empty() || tree.is_empty() {
            return RangeScanRev {
                range,
                leaf: None,
                pos_plus_one: 0,
                done: true,
                pending_err: None,
            };
        }
        let mut id = tree.root;
        loop {
            if let Err(e) = tree.try_touch(id, cost) {
                return Self::deferred(range, e);
            }
            let node = match tree.try_node(id) {
                Ok(n) => n,
                Err(e) => return Self::deferred(range, e),
            };
            match node {
                Node::Internal(node) => {
                    // Last child that may contain a key satisfying hi.
                    let last = node.seps.partition_point(|s| range.satisfies_hi(&s.key));
                    match node.children.get(last) {
                        Some(child) => id = *child,
                        None => {
                            return Self::deferred(
                                range,
                                StorageError::Corrupt("internal child/separator mismatch"),
                            )
                        }
                    }
                }
                Node::Leaf(leaf) => {
                    let pos = leaf
                        .entries
                        .partition_point(|e| range.satisfies_hi(&e.key));
                    return RangeScanRev {
                        range,
                        leaf: Some(id),
                        pos_plus_one: pos,
                        done: false,
                        pending_err: None,
                    };
                }
            }
        }
    }

    /// True once the scan has delivered its last entry (or died on a
    /// fault).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Next entry in reverse key order, `Ok(None)` at the start of the
    /// range, or `Err` if a storage fault killed the scan.
    pub fn next(
        &mut self,
        tree: &BTree,
        cost: &CostMeter,
    ) -> Result<Option<(Vec<Value>, Rid)>, StorageError> {
        Ok(self.step(tree, cost)?.map(|e| (e.key.clone(), e.rid)))
    }

    /// [`RangeScanRev::next`] for callers that want only the RID.
    pub fn next_rid(
        &mut self,
        tree: &BTree,
        cost: &CostMeter,
    ) -> Result<Option<Rid>, StorageError> {
        Ok(self.step(tree, cost)?.map(|e| e.rid))
    }

    /// Advances one entry backwards and lends it from the tree.
    fn step<'t>(
        &mut self,
        tree: &'t BTree,
        cost: &CostMeter,
    ) -> Result<Option<&'t Entry>, StorageError> {
        if let Some(e) = self.pending_err.take() {
            self.done = true;
            return Err(e);
        }
        if self.done {
            return Ok(None);
        }
        loop {
            let leaf_id = match self.leaf {
                Some(id) => id,
                None => {
                    self.done = true;
                    return Ok(None);
                }
            };
            let leaf = match tree.try_node(leaf_id).and_then(Node::try_as_leaf) {
                Ok(l) => l,
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            };
            if let Some(entry) = self
                .pos_plus_one
                .checked_sub(1)
                .and_then(|p| leaf.entries.get(p))
            {
                self.pos_plus_one -= 1;
                tree.charge_entries(1, cost);
                if !self.range.satisfies_lo(&entry.key) {
                    self.done = true;
                    return Ok(None);
                }
                debug_assert!(self.range.satisfies_hi(&entry.key));
                return Ok(Some(entry));
            }
            // Exhausted this leaf: re-descend to the predecessor leaf (the
            // rightmost leaf of the nearest left-sibling subtree on the
            // path to this leaf's first entry).
            let Some(first) = leaf.entries.first() else {
                self.done = true;
                return Ok(None);
            };
            let prev = match tree.predecessor_leaf(first, cost) {
                Ok(p) => p,
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            };
            match prev {
                Some(id) => {
                    let n = match tree.try_node(id).and_then(Node::try_as_leaf) {
                        Ok(l) => l.entries.len(),
                        Err(e) => {
                            self.done = true;
                            return Err(e);
                        }
                    };
                    self.leaf = Some(id);
                    self.pos_plus_one = n;
                }
                None => {
                    self.done = true;
                    return Ok(None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBound;
    use rdb_storage::{shared_meter, shared_pool, CostConfig, FaultPolicy, FileId};

    fn tree(keys: impl IntoIterator<Item = i64>) -> BTree {
        let pool = shared_pool(10_000, shared_meter(CostConfig::default()));
        let mut t = BTree::new("idx", FileId(1), pool, vec![0], 4);
        for (i, k) in keys.into_iter().enumerate() {
            t.insert(vec![Value::Int(k)], Rid::new(i as u32, 0));
        }
        t
    }

    fn scan_keys(t: &BTree, r: KeyRange) -> Vec<i64> {
        let cost = t.pool().cost().clone();
        t.range_to_vec(r, &cost)
            .into_iter()
            .map(|(k, _)| k[0].as_i64().unwrap())
            .collect()
    }

    #[test]
    fn full_scan_in_order() {
        let t = tree((0..200).rev());
        let keys = scan_keys(&t, KeyRange::all());
        assert_eq!(keys, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn closed_range() {
        let t = tree(0..100);
        assert_eq!(scan_keys(&t, KeyRange::closed(30, 32)), vec![30, 31, 32]);
    }

    #[test]
    fn half_open_ranges() {
        let t = tree(0..50);
        assert_eq!(scan_keys(&t, KeyRange::at_least(47)), vec![47, 48, 49]);
        assert_eq!(scan_keys(&t, KeyRange::at_most(2)), vec![0, 1, 2]);
    }

    #[test]
    fn exclusive_bounds() {
        let t = tree(0..20);
        let r = KeyRange {
            lo: KeyBound::exclusive(5),
            hi: KeyBound::exclusive(8),
        };
        assert_eq!(scan_keys(&t, r), vec![6, 7]);
    }

    #[test]
    fn empty_and_missing_ranges() {
        let t = tree(0..20);
        assert!(scan_keys(&t, KeyRange::closed(100, 200)).is_empty());
        assert!(scan_keys(&t, KeyRange::closed(10, 5)).is_empty());
        let empty = tree(std::iter::empty());
        assert!(scan_keys(&empty, KeyRange::all()).is_empty());
    }

    #[test]
    fn duplicates_all_delivered() {
        let pool = shared_pool(1000, shared_meter(CostConfig::default()));
        let mut t = BTree::new("idx", FileId(1), pool, vec![0], 4);
        for i in 0..30u32 {
            t.insert(vec![Value::Int(i64::from(i % 3))], Rid::new(i, 0));
        }
        assert_eq!(scan_keys(&t, KeyRange::eq(1)).len(), 10);
    }

    fn scan_keys_rev(t: &BTree, r: KeyRange) -> Vec<i64> {
        let cost = t.pool().cost().clone();
        let mut scan = t.range_scan_rev(r, &cost);
        let mut out = Vec::new();
        while let Some((k, _)) = scan.next(t, &cost).unwrap() {
            out.push(k[0].as_i64().unwrap());
        }
        out
    }

    #[test]
    fn reverse_full_scan_descends() {
        let t = tree(0..200);
        let keys = scan_keys_rev(&t, KeyRange::all());
        assert_eq!(keys, (0..200).rev().collect::<Vec<_>>());
    }

    #[test]
    fn reverse_range_scan_matches_forward_reversed() {
        let t = tree((0..500).rev());
        for r in [
            KeyRange::closed(100, 250),
            KeyRange::at_least(490),
            KeyRange::at_most(9),
            KeyRange::eq(42),
            KeyRange::closed(600, 700),
        ] {
            let mut fwd = scan_keys(&t, r.clone());
            fwd.reverse();
            assert_eq!(scan_keys_rev(&t, r), fwd);
        }
    }

    #[test]
    fn reverse_scan_with_exclusive_bounds() {
        let t = tree(0..50);
        let r = KeyRange {
            lo: KeyBound::exclusive(10),
            hi: KeyBound::exclusive(14),
        };
        assert_eq!(scan_keys_rev(&t, r), vec![13, 12, 11]);
    }

    #[test]
    fn reverse_scan_duplicates_and_resume() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool, vec![0], 4);
        for i in 0..60u32 {
            t.insert(vec![Value::Int(i64::from(i % 6))], Rid::new(i, 0));
        }
        let mut scan = t.range_scan_rev(KeyRange::closed(2, 4), &cost);
        let mut first = Vec::new();
        for _ in 0..10 {
            first.push(scan.next(&t, &cost).unwrap().unwrap().0[0].as_i64().unwrap());
        }
        // Park and resume across leaf boundaries.
        let mut rest = Vec::new();
        while let Some((k, _)) = scan.next(&t, &cost).unwrap() {
            rest.push(k[0].as_i64().unwrap());
        }
        first.extend(rest);
        assert_eq!(first.len(), 30, "keys 2,3,4 x 10 each");
        assert!(first.windows(2).all(|w| w[0] >= w[1]), "non-increasing");
    }

    #[test]
    fn scan_is_resumable_mid_stream() {
        let t = tree(0..100);
        let cost = t.pool().cost().clone();
        let mut scan = t.range_scan(KeyRange::closed(10, 90), &cost);
        let mut first_half = Vec::new();
        for _ in 0..40 {
            first_half.push(scan.next(&t, &cost).unwrap().unwrap().0[0].as_i64().unwrap());
        }
        // "Park" the cursor, then resume.
        let mut rest = Vec::new();
        while let Some((k, _)) = scan.next(&t, &cost).unwrap() {
            rest.push(k[0].as_i64().unwrap());
        }
        first_half.extend(rest);
        assert_eq!(first_half, (10..=90).collect::<Vec<_>>());
    }

    #[test]
    fn scan_cost_scales_with_range_size() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool, vec![0], 8);
        for i in 0..10_000 {
            t.insert(vec![Value::Int(i)], Rid::new(i as u32, 0));
        }
        let before = cost.total();
        t.range_to_vec(KeyRange::closed(0, 9), &cost);
        let small = cost.total() - before;
        let before = cost.total();
        t.range_to_vec(KeyRange::closed(0, 4999), &cost);
        let large = cost.total() - before;
        assert!(
            large > small * 5.0,
            "large range ({large}) must cost far more than small ({small})"
        );
    }

    #[test]
    fn multi_column_prefix_scan() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(1000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool, vec![0, 1], 4);
        for a in 0..10i64 {
            for b in 0..10i64 {
                t.insert(
                    vec![Value::Int(a), Value::Int(b)],
                    Rid::new((a * 10 + b) as u32, 0),
                );
            }
        }
        // Prefix bound on the first column only.
        let r = KeyRange {
            lo: KeyBound::Inclusive(vec![Value::Int(3)]),
            hi: KeyBound::Inclusive(vec![Value::Int(3)]),
        };
        let entries = t.range_to_vec(r, &cost);
        assert_eq!(entries.len(), 10);
        assert!(entries.iter().all(|(k, _)| k[0] == Value::Int(3)));
        // Full two-column bound.
        let r2 = KeyRange {
            lo: KeyBound::Inclusive(vec![Value::Int(3), Value::Int(4)]),
            hi: KeyBound::Inclusive(vec![Value::Int(3), Value::Int(6)]),
        };
        let entries2 = t.range_to_vec(r2, &cost);
        assert_eq!(entries2.len(), 3);
    }

    #[test]
    fn open_fault_is_deferred_to_first_next() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool.clone(), vec![0], 4);
        for i in 0..200 {
            t.insert(vec![Value::Int(i)], Rid::new(i as u32, 0));
        }
        // Fail the very first index-page read: the descent dies, but open
        // still returns a cursor; the error surfaces on next().
        pool.set_fault_policy(Some(FaultPolicy::fail_from_nth(0).scoped_to(FileId(1))));
        let mut scan = t.range_scan(KeyRange::all(), &cost);
        assert!(!scan.is_done());
        let err = scan.next(&t, &cost).unwrap_err();
        assert!(matches!(err, StorageError::InjectedFault { .. }));
        assert!(!err.is_benign_for_scan());
        // The cursor is dead, not wedged: subsequent calls yield Ok(None).
        assert!(scan.is_done());
        assert_eq!(scan.next(&t, &cost).unwrap(), None);
    }

    #[test]
    fn mid_scan_fault_kills_cursor_cleanly() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool.clone(), vec![0], 4);
        for i in 0..500 {
            t.insert(vec![Value::Int(i)], Rid::new(i as u32, 0));
        }
        // Let the descent and a few leaves through, then kill the disk.
        pool.set_fault_policy(Some(FaultPolicy::fail_from_nth(10).scoped_to(FileId(1))));
        let mut scan = t.range_scan(KeyRange::all(), &cost);
        let mut delivered = 0usize;
        let err = loop {
            match scan.next(&t, &cost) {
                Ok(Some(_)) => delivered += 1,
                Ok(None) => panic!("scan must die before finishing 500 entries"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StorageError::InjectedFault { .. }));
        assert!(delivered > 0, "some entries must flow before the fault");
        assert_eq!(scan.next(&t, &cost).unwrap(), None, "dead cursor stays dead");
        // Disarm and rescan: everything is intact (no partial-state damage).
        pool.set_fault_policy(None);
        assert_eq!(t.count_range(KeyRange::all(), &cost), 500);
    }

    #[test]
    fn poisoned_leaf_link_surfaces_as_corrupt_not_panic() {
        let mut t = tree(0..200);
        // Poison every leaf's forward link to a dangling node id. Before
        // the try_node burn-down this was an index-out-of-bounds panic,
        // which escapes the simtest "clean faults, never corruption
        // panics" contract.
        for node in &mut t.nodes {
            if let Node::Leaf(l) = node {
                if l.next.is_some() {
                    l.next = Some(9_999);
                }
            }
        }
        let cost = t.pool().cost().clone();
        let mut scan = t.range_scan(KeyRange::all(), &cost);
        let err = loop {
            match scan.next(&t, &cost) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("scan must hit the poisoned link"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");
        assert!(!err.is_benign_for_scan());
        assert_eq!(scan.next(&t, &cost).unwrap(), None, "dead cursor stays dead");
    }

    #[test]
    fn poisoned_root_defers_corrupt_to_first_next() {
        let mut t = tree(0..50);
        t.root = 40_000;
        let cost = t.pool().cost().clone();
        let mut scan = t.range_scan(KeyRange::all(), &cost);
        assert!(matches!(
            scan.next(&t, &cost),
            Err(StorageError::Corrupt(_))
        ));
        let mut rev = t.range_scan_rev(KeyRange::all(), &cost);
        assert!(matches!(
            rev.next(&t, &cost),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn leaf_link_to_internal_node_is_corrupt() {
        let mut t = tree(0..400);
        let internal_id = t
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Internal(_)))
            .expect("tall tree has internals") as u32;
        for node in &mut t.nodes {
            if let Node::Leaf(l) = node {
                if l.next.is_some() {
                    l.next = Some(internal_id);
                }
            }
        }
        let cost = t.pool().cost().clone();
        let mut scan = t.range_scan(KeyRange::all(), &cost);
        let err = loop {
            match scan.next(&t, &cost) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("scan must hit the poisoned link"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn reverse_scan_fault_on_redescent_propagates() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool.clone(), vec![0], 4);
        for i in 0..300 {
            t.insert(vec![Value::Int(i)], Rid::new(i as u32, 0));
        }
        pool.set_fault_policy(Some(FaultPolicy::fail_from_nth(8).scoped_to(FileId(1))));
        let mut scan = t.range_scan_rev(KeyRange::all(), &cost);
        let mut delivered = 0usize;
        let mut saw_err = false;
        loop {
            match scan.next(&t, &cost) {
                Ok(Some(_)) => delivered += 1,
                Ok(None) => break,
                Err(e) => {
                    assert!(matches!(e, StorageError::InjectedFault { .. }));
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(saw_err, "reverse scan must hit the injected fault");
        assert!(delivered < 300);
        assert_eq!(scan.next(&t, &cost).unwrap(), None);
    }
}

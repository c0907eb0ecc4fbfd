//! The B+‑tree proper: construction, maintenance, and node access
//! accounting.

use rdb_storage::{CostMeter, FileId, PageId, Rid, SharedPool, StorageError, Value};

use crate::key::KeyRange;
use crate::node::{Entry, InternalNode, LeafNode, Node, NodeId};
use crate::scan::RangeScan;
use crate::stats::IndexStats;

/// A B+‑tree secondary index over one table.
///
/// * `key_columns` records which table columns (by position) form the key,
///   in order — the query layer uses this to classify the index as
///   self-sufficient / order-needed / fetch-needed for a given request
///   (paper Section 4).
/// * `max_fanout` bounds entries per leaf and children per internal node.
///   Real Rdb trees had fanouts in the hundreds; experiments often use
///   small fanouts to get tall trees with small data.
///
/// Reads (lookups, scans, estimates, samples) charge the buffer pool and
/// the **caller's** [`CostMeter`] — every charging entry point takes an
/// explicit meter so concurrent sessions sharing one tree keep their own
/// books. Inserts and deletes are treated as load-time setup and charge
/// nothing, keeping retrieval experiments clean.
#[derive(Debug)]
pub struct BTree {
    name: String,
    file: FileId,
    pool: SharedPool,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    max_fanout: usize,
    key_columns: Vec<usize>,
    entry_count: u64,
    height: u32,
    /// Slots summed over every arena node (leaf entries plus internal
    /// children), kept up to date by insert, delete and bulk load so
    /// [`BTree::avg_fanout`] costs O(1).
    slots: usize,
}

impl BTree {
    /// Creates an empty index.
    ///
    /// # Panics
    /// If `max_fanout < 4` (splits need room) or `key_columns` is empty.
    pub fn new(
        name: impl Into<String>,
        file: FileId,
        pool: SharedPool,
        key_columns: Vec<usize>,
        max_fanout: usize,
    ) -> Self {
        assert!(max_fanout >= 4, "max_fanout must be at least 4");
        assert!(!key_columns.is_empty(), "index needs at least one key column");
        BTree {
            name: name.into(),
            file,
            pool,
            nodes: vec![Node::Leaf(LeafNode {
                entries: Vec::new(),
                next: None,
            })],
            root: 0,
            max_fanout,
            key_columns,
            entry_count: 0,
            height: 1,
            slots: 0,
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// File id of this index in the shared pool.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Table column positions forming the key, in index order.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Tree height (1 = root is a leaf). This is the paper's split-level
    /// scale: leaves are level 1.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Maximum slots per node.
    pub fn max_fanout(&self) -> usize {
        self.max_fanout
    }

    /// Shared buffer pool.
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    /// Charges one page access for visiting `node` (read path only) to the
    /// caller's meter.
    ///
    /// Infallible variant for planning-time reads (`contains`, catalog
    /// estimation): those model pinned metadata and are exempt from fault
    /// injection. Data scans go through [`BTree::try_touch`].
    pub(crate) fn touch(&self, node: NodeId, cost: &CostMeter) {
        self.pool.access(PageId::new(self.file, node), cost);
    }

    /// Fallible page visit for scan paths: consults the pool's
    /// [`rdb_storage::FaultPolicy`] (if armed) before charging, so a
    /// simulated dead disk surfaces here as `Err` instead of a panic.
    pub(crate) fn try_touch(&self, node: NodeId, cost: &CostMeter) -> Result<(), StorageError> {
        self.pool.try_access(PageId::new(self.file, node), cost)?;
        Ok(())
    }

    /// Charges `n` index-entry visits to the caller's meter.
    pub(crate) fn charge_entries(&self, n: u64, cost: &CostMeter) {
        cost.charge_index_entries(n);
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Fallible arena access for scan paths: a dangling node id (from a
    /// corrupted leaf link or child pointer) surfaces as
    /// [`StorageError::Corrupt`] instead of an index-out-of-bounds panic,
    /// so the simtest "clean faults, never corruption panics" contract
    /// holds even against a poisoned index.
    pub(crate) fn try_node(&self, id: NodeId) -> Result<&Node, StorageError> {
        self.nodes
            .get(id as usize)
            .ok_or(StorageError::Corrupt("dangling b-tree node id"))
    }

    /// Average node fanout `f`: slots per arena node, as used by the
    /// paper's estimate `k·f^(l−1)` and by leaf-page pricing. Read from the
    /// maintained slot total (no page charges, no node walk).
    pub fn avg_fanout(&self) -> f64 {
        self.slots as f64 / self.nodes.len() as f64
    }

    /// Bulk-loads a tree from entries in one bottom-up pass — the
    /// production loading path: leaves are packed left to right at a ~2/3
    /// fill factor (leaving room for later inserts), then each internal
    /// level is built over the one below. Entries are sorted internally;
    /// duplicates (same key *and* RID) are kept. Each key moves into its
    /// leaf: the only copies made are one separator per node.
    pub fn bulk_load(
        name: impl Into<String>,
        file: FileId,
        pool: SharedPool,
        key_columns: Vec<usize>,
        max_fanout: usize,
        mut entries: Vec<(Vec<Value>, Rid)>,
    ) -> Self {
        assert!(max_fanout >= 4);
        assert!(!key_columns.is_empty());
        let mut tree = BTree::new(name, file, pool, key_columns, max_fanout);
        if entries.is_empty() {
            return tree;
        }
        // `(key, rid)` tuple order — the key lexicographically, a shorter
        // key first on a common prefix, then the RID — is exactly
        // `Entry::cmp_full`'s total order, compared in place.
        entries.sort();
        let total = entries.len() as u64;
        let fill = (max_fanout * 2 / 3).max(2);

        // Build the leaf level.
        tree.nodes.clear();
        let mut level: Vec<(NodeId, Entry, u64)> = Vec::new(); // (id, min entry, count)
        let mut entries = entries.into_iter().peekable();
        while entries.peek().is_some() {
            let node_entries: Vec<Entry> = entries
                .by_ref()
                .take(fill)
                .map(|(k, r)| Entry::new(k, r))
                .collect();
            let min = node_entries[0].clone();
            let count = node_entries.len() as u64;
            let id = tree.nodes.len() as NodeId;
            tree.nodes.push(Node::Leaf(LeafNode {
                entries: node_entries,
                next: None,
            }));
            // Link the previous leaf to this one.
            if let Some((prev_id, _, _)) = level.last() {
                if let Node::Leaf(prev) = &mut tree.nodes[*prev_id as usize] {
                    prev.next = Some(id);
                }
            }
            level.push((id, min, count));
        }
        let mut height = 1;
        let mut slots = total as usize;

        // Build internal levels until one node remains.
        while level.len() > 1 {
            let mut next_level: Vec<(NodeId, Entry, u64)> = Vec::new();
            for chunk in level.chunks(fill) {
                let children: Vec<NodeId> = chunk.iter().map(|(id, _, _)| *id).collect();
                let counts: Vec<u64> = chunk.iter().map(|(_, _, c)| *c).collect();
                let seps: Vec<Entry> =
                    chunk[1..].iter().map(|(_, min, _)| min.clone()).collect();
                let min = chunk[0].1.clone();
                let count = counts.iter().sum();
                let id = tree.nodes.len() as NodeId;
                slots += children.len();
                tree.nodes.push(Node::Internal(InternalNode {
                    seps,
                    children,
                    counts,
                }));
                next_level.push((id, min, count));
            }
            level = next_level;
            height += 1;
        }
        tree.root = level[0].0;
        tree.height = height;
        tree.entry_count = total;
        tree.slots = slots;
        tree
    }

    /// Inserts an entry (load-time operation; no read cost charged).
    pub fn insert(&mut self, key: Vec<Value>, rid: Rid) {
        debug_assert_eq!(key.len(), self.key_columns.len());
        let entry = Entry::new(key, rid);
        if let Some((sep, right, left_count, right_count)) = self.insert_rec(self.root, entry) {
            let new_root = InternalNode {
                seps: vec![sep],
                children: vec![self.root, right],
                counts: vec![left_count, right_count],
            };
            self.nodes.push(Node::Internal(new_root));
            self.root = (self.nodes.len() - 1) as NodeId;
            self.height += 1;
            self.slots += 2;
        }
        self.entry_count += 1;
    }

    /// Recursive insert; returns `(separator, right_id, left_count,
    /// right_count)` when `node` split.
    fn insert_rec(&mut self, node: NodeId, entry: Entry) -> Option<(Entry, NodeId, u64, u64)> {
        match &mut self.nodes[node as usize] {
            Node::Leaf(leaf) => {
                let pos = leaf
                    .entries
                    .partition_point(|e| e.cmp_full(&entry) == std::cmp::Ordering::Less);
                leaf.entries.insert(pos, entry);
                self.slots += 1;
                if leaf.entries.len() <= self.max_fanout {
                    return None;
                }
                // Split the leaf.
                let mid = leaf.entries.len() / 2;
                let right_entries = leaf.entries.split_off(mid);
                let sep = right_entries[0].clone();
                let old_next = leaf.next;
                let left_count = leaf.entries.len() as u64;
                let right_count = right_entries.len() as u64;
                let right_id = self.nodes.len() as NodeId;
                if let Node::Leaf(leaf) = &mut self.nodes[node as usize] {
                    leaf.next = Some(right_id);
                }
                self.nodes.push(Node::Leaf(LeafNode {
                    entries: right_entries,
                    next: old_next,
                }));
                Some((sep, right_id, left_count, right_count))
            }
            Node::Internal(internal) => {
                let child_idx = internal.child_for(&entry);
                let child_id = internal.children[child_idx];
                let split = self.insert_rec(child_id, entry);
                let internal = match &mut self.nodes[node as usize] {
                    Node::Internal(i) => i,
                    Node::Leaf(_) => unreachable!("internal became leaf"),
                };
                match split {
                    None => {
                        internal.counts[child_idx] += 1;
                        None
                    }
                    Some((sep, right_id, left_count, right_count)) => {
                        internal.counts[child_idx] = left_count;
                        internal.seps.insert(child_idx, sep);
                        internal.children.insert(child_idx + 1, right_id);
                        internal.counts.insert(child_idx + 1, right_count);
                        self.slots += 1;
                        if internal.children.len() <= self.max_fanout {
                            return None;
                        }
                        // Split the internal node.
                        let mid = internal.seps.len() / 2;
                        let sep_up = internal.seps[mid].clone();
                        let right_seps = internal.seps.split_off(mid + 1);
                        internal.seps.pop(); // sep_up moves to the parent
                        let right_children = internal.children.split_off(mid + 1);
                        let right_counts = internal.counts.split_off(mid + 1);
                        let left_total: u64 = internal.counts.iter().sum();
                        let right_total: u64 = right_counts.iter().sum();
                        let right_id = self.nodes.len() as NodeId;
                        self.nodes.push(Node::Internal(InternalNode {
                            seps: right_seps,
                            children: right_children,
                            counts: right_counts,
                        }));
                        Some((sep_up, right_id, left_total, right_total))
                    }
                }
            }
        }
    }

    /// Deletes the entry `(key, rid)` if present; returns whether it was.
    ///
    /// Deletion is *lazy* (no rebalancing): nodes may become underfull, as
    /// in most production B-trees; only an empty-but-for-one-child root is
    /// collapsed. Load/maintenance operation — no read cost charged.
    pub fn delete(&mut self, key: &[Value], rid: Rid) -> bool {
        let entry = Entry::new(key.to_vec(), rid);
        let removed = self.delete_rec(self.root, &entry);
        if removed {
            self.entry_count -= 1;
            // Collapse trivial roots.
            while let Node::Internal(i) = &self.nodes[self.root as usize] {
                if i.children.len() == 1 {
                    self.root = i.children[0];
                    self.height -= 1;
                } else {
                    break;
                }
            }
        }
        removed
    }

    fn delete_rec(&mut self, node: NodeId, entry: &Entry) -> bool {
        match &mut self.nodes[node as usize] {
            Node::Leaf(leaf) => {
                let pos = leaf
                    .entries
                    .partition_point(|e| e.cmp_full(entry) == std::cmp::Ordering::Less);
                if leaf
                    .entries
                    .get(pos)
                    .is_some_and(|e| e.cmp_full(entry) == std::cmp::Ordering::Equal)
                {
                    leaf.entries.remove(pos);
                    self.slots -= 1;
                    true
                } else {
                    false
                }
            }
            Node::Internal(internal) => {
                let child_idx = internal.child_for(entry);
                let child_id = internal.children[child_idx];
                let removed = self.delete_rec(child_id, entry);
                if removed {
                    if let Node::Internal(i) = &mut self.nodes[node as usize] {
                        i.counts[child_idx] -= 1;
                    }
                }
                removed
            }
        }
    }

    /// True iff the exact entry `(key, rid)` exists (charges the descent).
    pub fn contains(&self, key: &[Value], rid: Rid, cost: &CostMeter) -> bool {
        let entry = Entry::new(key.to_vec(), rid);
        let mut id = self.root;
        loop {
            self.touch(id, cost);
            match self.node(id) {
                Node::Internal(i) => id = i.children[i.child_for(&entry)],
                Node::Leaf(l) => {
                    let pos = l
                        .entries
                        .partition_point(|e| e.cmp_full(&entry) == std::cmp::Ordering::Less);
                    return l
                        .entries
                        .get(pos)
                        .is_some_and(|e| e.cmp_full(&entry) == std::cmp::Ordering::Equal);
                }
            }
        }
    }

    /// Opens a resumable scan over `range` (charges the initial descent).
    pub fn range_scan(&self, range: KeyRange, cost: &CostMeter) -> RangeScan {
        RangeScan::open(self, range, cost)
    }

    /// Opens a resumable **descending** scan over `range` (charges the
    /// initial descent; see [`crate::scan::RangeScanRev`] for the
    /// leaf-transition cost model).
    pub fn range_scan_rev(&self, range: KeyRange, cost: &CostMeter) -> crate::scan::RangeScanRev {
        crate::scan::RangeScanRev::open(self, range, cost)
    }

    /// Finds the leaf containing the greatest entry strictly below
    /// `entry`, by one root-to-leaf descent (charged). Used by descending
    /// scans to cross leaf boundaries without backward sibling links.
    pub(crate) fn predecessor_leaf(
        &self,
        entry: &Entry,
        cost: &CostMeter,
    ) -> Result<Option<NodeId>, StorageError> {
        let mut id = self.root;
        let mut candidate: Option<NodeId> = None;
        loop {
            self.try_touch(id, cost)?;
            match self.try_node(id)? {
                Node::Internal(node) => {
                    let idx = node.child_for(entry);
                    if idx > 0 {
                        let left = *node
                            .children
                            .get(idx - 1)
                            .ok_or(StorageError::Corrupt("internal child/separator mismatch"))?;
                        candidate = Some(self.rightmost_leaf(left, cost)?);
                    }
                    id = *node
                        .children
                        .get(idx)
                        .ok_or(StorageError::Corrupt("internal child/separator mismatch"))?;
                }
                Node::Leaf(leaf) => {
                    // Entries strictly below `entry` within this leaf would
                    // have been consumed already by the caller; the answer
                    // is the left-sibling subtree's rightmost leaf.
                    let _ = leaf;
                    return Ok(candidate);
                }
            }
        }
    }

    /// Rightmost leaf of the subtree rooted at `id` (descent charged).
    fn rightmost_leaf(&self, mut id: NodeId, cost: &CostMeter) -> Result<NodeId, StorageError> {
        loop {
            self.try_touch(id, cost)?;
            match self.try_node(id)? {
                Node::Internal(node) => {
                    id = *node
                        .children
                        .last()
                        .ok_or(StorageError::Corrupt("internal node with no children"))?;
                }
                Node::Leaf(_) => return Ok(id),
            }
        }
    }

    /// Collects all `(key, rid)` pairs in `range` (convenience; charges the
    /// full scan). Panics on an injected fault — use [`BTree::range_scan`]
    /// directly where faults must be handled.
    pub fn range_to_vec(&self, range: KeyRange, cost: &CostMeter) -> Vec<(Vec<Value>, Rid)> {
        let mut scan = self.range_scan(range, cost);
        let mut out = Vec::new();
        while let Some(e) = scan
            .next(self, cost)
            .expect("convenience scan hit an injected fault")
        {
            out.push(e);
        }
        out
    }

    /// Exact number of entries in `range`, counted by scanning (charged).
    /// Panics on an injected fault, like [`BTree::range_to_vec`].
    pub fn count_range(&self, range: KeyRange, cost: &CostMeter) -> u64 {
        let mut scan = self.range_scan(range, cost);
        let mut n = 0;
        while scan
            .next_rid(self, cost)
            .expect("convenience scan hit an injected fault")
            .is_some()
        {
            n += 1;
        }
        n
    }

    /// Computes catalog statistics (no page charges; see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        IndexStats::compute(self)
    }

    /// Verifies every structural invariant; panics with a description on
    /// violation. Test/debug aid.
    pub fn check_invariants(&self) {
        let total = self.check_node(self.root, None, None, self.height);
        assert_eq!(total, self.entry_count, "entry count mismatch");
        let walked: usize = self.nodes.iter().map(Node::slot_count).sum();
        assert_eq!(walked, self.slots, "stale slot total");
    }

    fn check_node(
        &self,
        id: NodeId,
        lo: Option<&Entry>,
        hi: Option<&Entry>,
        expect_level: u32,
    ) -> u64 {
        use std::cmp::Ordering;
        let in_bounds = |e: &Entry| {
            if let Some(lo) = lo {
                assert_ne!(e.cmp_full(lo), Ordering::Less, "entry below subtree lo");
            }
            if let Some(hi) = hi {
                assert_eq!(e.cmp_full(hi), Ordering::Less, "entry not below subtree hi");
            }
        };
        match self.node(id) {
            Node::Leaf(l) => {
                assert_eq!(expect_level, 1, "leaf at wrong level");
                for w in l.entries.windows(2) {
                    assert_eq!(w[0].cmp_full(&w[1]), Ordering::Less, "leaf out of order");
                }
                for e in &l.entries {
                    in_bounds(e);
                }
                l.entries.len() as u64
            }
            Node::Internal(i) => {
                assert!(expect_level > 1, "internal at leaf level");
                assert_eq!(i.children.len(), i.seps.len() + 1);
                assert_eq!(i.children.len(), i.counts.len());
                for w in i.seps.windows(2) {
                    assert_eq!(w[0].cmp_full(&w[1]), Ordering::Less, "seps out of order");
                }
                for s in &i.seps {
                    in_bounds(s);
                }
                let mut total = 0;
                for (c, child) in i.children.iter().enumerate() {
                    let child_lo = if c == 0 { lo } else { Some(&i.seps[c - 1]) };
                    let child_hi = if c == i.seps.len() {
                        hi
                    } else {
                        Some(&i.seps[c])
                    };
                    let child_count = self.check_node(*child, child_lo, child_hi, expect_level - 1);
                    assert_eq!(child_count, i.counts[c], "stale subtree count");
                    total += child_count;
                }
                total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_storage::{shared_meter, shared_pool, CostConfig, SharedCost};

    /// The pool's default meter — fine for single-session tests.
    pub(crate) fn meter(t: &BTree) -> SharedCost {
        t.pool().cost().clone()
    }

    pub(crate) fn small_tree(max_fanout: usize, keys: impl IntoIterator<Item = i64>) -> BTree {
        let pool = shared_pool(10_000, shared_meter(CostConfig::default()));
        let mut tree = BTree::new("idx", FileId(1), pool, vec![0], max_fanout);
        for (i, k) in keys.into_iter().enumerate() {
            tree.insert(vec![Value::Int(k)], Rid::new(i as u32, 0));
        }
        tree
    }

    #[test]
    fn insert_builds_valid_tree() {
        let tree = small_tree(4, 0..1000);
        tree.check_invariants();
        assert_eq!(tree.len(), 1000);
        assert!(tree.height() >= 4, "fanout 4 over 1000 keys must be tall");
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        let tree = small_tree(5, (0..500).rev());
        tree.check_invariants();
        let mut xs: Vec<i64> = (0..500).collect();
        // Deterministic shuffle.
        let mut state = 42u64;
        for i in (1..xs.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            xs.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let tree2 = small_tree(5, xs);
        tree2.check_invariants();
        assert_eq!(tree2.len(), 500);
    }

    #[test]
    fn duplicate_keys_allowed_and_ordered_by_rid() {
        let pool = shared_pool(1000, shared_meter(CostConfig::default()));
        let mut tree = BTree::new("idx", FileId(1), pool, vec![0], 4);
        for i in 0..100u32 {
            tree.insert(vec![Value::Int(7)], Rid::new(i, 0));
        }
        tree.check_invariants();
        let cost = meter(&tree);
        assert_eq!(tree.count_range(KeyRange::eq(7), &cost), 100);
    }

    #[test]
    fn contains_finds_exact_entries() {
        let tree = small_tree(4, 0..200);
        let cost = meter(&tree);
        assert!(tree.contains(&[Value::Int(123)], Rid::new(123, 0), &cost));
        assert!(!tree.contains(&[Value::Int(123)], Rid::new(999, 0), &cost));
        assert!(!tree.contains(&[Value::Int(7777)], Rid::new(0, 0), &cost));
    }

    #[test]
    fn delete_removes_and_updates_counts() {
        let mut tree = small_tree(4, 0..300);
        assert!(tree.delete(&[Value::Int(150)], Rid::new(150, 0)));
        assert!(!tree.delete(&[Value::Int(150)], Rid::new(150, 0)));
        assert_eq!(tree.len(), 299);
        tree.check_invariants();
        let cost = meter(&tree);
        assert!(!tree.contains(&[Value::Int(150)], Rid::new(150, 0), &cost));
    }

    #[test]
    fn delete_everything_leaves_empty_tree() {
        let mut tree = small_tree(4, 0..100);
        for i in 0..100 {
            assert!(tree.delete(&[Value::Int(i)], Rid::new(i as u32, 0)));
        }
        assert!(tree.is_empty());
        tree.check_invariants();
        let cost = meter(&tree);
        assert_eq!(tree.count_range(KeyRange::all(), &cost), 0);
    }

    #[test]
    fn avg_fanout_reasonable() {
        let tree = small_tree(8, 0..1000);
        let f = tree.avg_fanout();
        assert!(f > 3.0 && f <= 8.0, "avg fanout {f} out of range");
    }

    /// The fanout as every node walk computed it before the slot total
    /// was maintained.
    fn walked_fanout(t: &BTree) -> f64 {
        let slots: usize = t.nodes.iter().map(Node::slot_count).sum();
        slots as f64 / t.nodes.len() as f64
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The maintained fanout is bit-identical to the node walk after
        /// every insert and delete, on inserted and bulk-loaded trees, so
        /// nothing priced through it moves.
        #[test]
        fn maintained_fanout_equals_node_walk(
            keys in proptest::collection::vec(0i64..60, 0..300),
            fanout in 4usize..16,
            bulk in proptest::prelude::any::<bool>(),
            delete_every in 2usize..6,
        ) {
            let pool = shared_pool(100_000, shared_meter(CostConfig::default()));
            let mut t = if bulk {
                let entries = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (vec![Value::Int(k)], Rid::new(i as u32, 0)))
                    .collect();
                BTree::bulk_load("b", FileId(1), pool, vec![0], fanout, entries)
            } else {
                BTree::new("i", FileId(1), pool, vec![0], fanout)
            };
            proptest::prop_assert_eq!(t.avg_fanout().to_bits(), walked_fanout(&t).to_bits());
            let base = keys.len() as u32;
            for (i, &k) in keys.iter().enumerate() {
                t.insert(vec![Value::Int(k)], Rid::new(base + i as u32, 0));
                proptest::prop_assert_eq!(t.avg_fanout().to_bits(), walked_fanout(&t).to_bits());
            }
            for (i, &k) in keys.iter().enumerate().step_by(delete_every) {
                proptest::prop_assert!(t.delete(&[Value::Int(k)], Rid::new(base + i as u32, 0)));
                proptest::prop_assert_eq!(t.avg_fanout().to_bits(), walked_fanout(&t).to_bits());
            }
            t.check_invariants();
        }
    }

    #[test]
    fn bulk_load_matches_incremental_build() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost.clone());
        let entries: Vec<(Vec<Value>, Rid)> = (0..5000i64)
            .rev() // unsorted input: bulk_load must sort
            .map(|i| (vec![Value::Int(i % 700)], Rid::new(i as u32, 0)))
            .collect();
        let bulk = BTree::bulk_load("bulk", FileId(1), pool.clone(), vec![0], 8, entries.clone());
        bulk.check_invariants();
        assert_eq!(bulk.len(), 5000);
        let mut incremental = BTree::new("inc", FileId(2), pool, vec![0], 8);
        for (k, r) in entries {
            incremental.insert(k, r);
        }
        // Same contents, key order, and range results.
        assert_eq!(
            bulk.range_to_vec(KeyRange::all(), &cost),
            incremental.range_to_vec(KeyRange::all(), &cost)
        );
        assert_eq!(
            bulk.count_range(KeyRange::closed(100, 120), &cost),
            incremental.count_range(KeyRange::closed(100, 120), &cost)
        );
    }

    #[test]
    fn bulk_load_supports_inserts_and_deletes_afterwards() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost.clone());
        let entries: Vec<(Vec<Value>, Rid)> = (0..1000i64)
            .map(|i| (vec![Value::Int(i)], Rid::new(i as u32, 0)))
            .collect();
        let mut tree = BTree::bulk_load("b", FileId(1), pool, vec![0], 8, entries);
        tree.insert(vec![Value::Int(5000)], Rid::new(9999, 0));
        assert!(tree.delete(&[Value::Int(500)], Rid::new(500, 0)));
        tree.check_invariants();
        assert_eq!(tree.len(), 1000);
        assert!(tree.contains(&[Value::Int(5000)], Rid::new(9999, 0), &cost));
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(100, cost.clone());
        let empty = BTree::bulk_load("e", FileId(1), pool.clone(), vec![0], 8, vec![]);
        assert!(empty.is_empty());
        empty.check_invariants();
        let one = BTree::bulk_load(
            "o",
            FileId(2),
            pool,
            vec![0],
            8,
            vec![(vec![Value::Int(7)], Rid::new(0, 0))],
        );
        assert_eq!(one.len(), 1);
        one.check_invariants();
        assert!(one.contains(&[Value::Int(7)], Rid::new(0, 0), &cost));
    }

    #[test]
    fn reads_charge_pool_writes_do_not() {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(10_000, cost.clone());
        let mut tree = BTree::new("idx", FileId(1), pool, vec![0], 4);
        for i in 0..100 {
            tree.insert(vec![Value::Int(i)], Rid::new(i as u32, 0));
        }
        assert_eq!(cost.total(), 0.0, "inserts are load-time, free");
        tree.contains(&[Value::Int(50)], Rid::new(50, 0), &cost);
        assert!(cost.total() > 0.0, "lookup must charge the descent");
    }
}

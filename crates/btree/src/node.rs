//! B+‑tree node representation.
//!
//! Nodes live in an arena (`Vec<Node>`) owned by [`crate::BTree`]; a node's
//! arena index doubles as its page number in the shared buffer pool, so
//! touching a node costs exactly one page access.
//!
//! Internal nodes carry per-child **subtree entry counts**. These are the
//! "ranks" that make the tree a pseudo-ranked B+‑tree in the sense of
//! \[Ant92\]: they power both exact-weight random sampling and the exact
//! edge-descent range count.

use std::cmp::Ordering;

use rdb_storage::{Rid, StorageError, Value};

/// Arena index of a node.
pub(crate) type NodeId = u32;

/// One index entry: the indexed column values plus the record id.
///
/// The RID participates in ordering as a tiebreaker so duplicate keys are
/// totally ordered and deletes can target one specific entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Indexed column values.
    pub key: Vec<Value>,
    /// Record the entry points at.
    pub rid: Rid,
}

impl Entry {
    /// Creates an entry.
    pub fn new(key: Vec<Value>, rid: Rid) -> Self {
        Entry { key, rid }
    }

    /// Total order: key values, then RID.
    pub fn cmp_full(&self, other: &Entry) -> Ordering {
        self.key
            .iter()
            .zip(other.key.iter())
            .map(|(a, b)| a.cmp(b))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or_else(|| self.key.len().cmp(&other.key.len()))
            .then_with(|| self.rid.cmp(&other.rid))
    }
}

/// A leaf node: sorted entries plus a right-sibling link for range scans.
#[derive(Debug, Clone)]
pub(crate) struct LeafNode {
    pub entries: Vec<Entry>,
    pub next: Option<NodeId>,
}

/// An internal node: `children.len() == seps.len() + 1`, and `seps[i]` is
/// the minimal entry of `children[i+1]`'s subtree. `counts[i]` is the exact
/// number of leaf entries under `children[i]`.
#[derive(Debug, Clone)]
pub(crate) struct InternalNode {
    pub seps: Vec<Entry>,
    pub children: Vec<NodeId>,
    pub counts: Vec<u64>,
}

impl InternalNode {
    /// Index of the child an entry with this exact (key, rid) belongs to.
    pub fn child_for(&self, entry: &Entry) -> usize {
        self.seps
            .partition_point(|s| s.cmp_full(entry) != Ordering::Greater)
    }

    /// Total entries under this node.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A B+‑tree node.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf(LeafNode),
    Internal(InternalNode),
}

impl Node {
    /// Number of slots (entries for leaves, children for internals) — the
    /// quantity bounded by the tree's fanout.
    pub fn slot_count(&self) -> usize {
        match self {
            Node::Leaf(l) => l.entries.len(),
            Node::Internal(i) => i.children.len(),
        }
    }

    pub fn as_leaf(&self) -> &LeafNode {
        match self {
            Node::Leaf(l) => l,
            Node::Internal(_) => panic!("expected leaf"),
        }
    }

    /// Fallible variant of [`Node::as_leaf`] for scan paths: a leaf link
    /// or descent that lands on an internal node is index corruption, not
    /// a programming error the scan may panic on.
    pub fn try_as_leaf(&self) -> Result<&LeafNode, StorageError> {
        match self {
            Node::Leaf(l) => Ok(l),
            Node::Internal(_) => Err(StorageError::Corrupt(
                "b-tree descent reached an internal node where a leaf was required",
            )),
        }
    }

    #[allow(dead_code)] // symmetric accessor kept for future node passes
    pub fn as_internal(&self) -> &InternalNode {
        match self {
            Node::Internal(i) => i,
            Node::Leaf(_) => panic!("expected internal"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(k: i64, page: u32) -> Entry {
        Entry::new(vec![Value::Int(k)], Rid::new(page, 0))
    }

    #[test]
    fn entry_order_uses_rid_tiebreak() {
        assert_eq!(e(5, 1).cmp_full(&e(5, 1)), Ordering::Equal);
        assert_eq!(e(5, 1).cmp_full(&e(5, 2)), Ordering::Less);
        assert_eq!(e(6, 0).cmp_full(&e(5, 9)), Ordering::Greater);
    }

    #[test]
    fn child_for_routes_by_separator() {
        let node = InternalNode {
            seps: vec![e(10, 0), e(20, 0)],
            children: vec![0, 1, 2],
            counts: vec![3, 4, 5],
        };
        assert_eq!(node.child_for(&e(5, 0)), 0);
        assert_eq!(node.child_for(&e(10, 0)), 1, "sep key goes right");
        assert_eq!(node.child_for(&e(15, 0)), 1);
        assert_eq!(node.child_for(&e(25, 0)), 2);
        assert_eq!(node.total_count(), 12);
    }
}

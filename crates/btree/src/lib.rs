#![forbid(unsafe_code)]

//! # rdb-btree
//!
//! B+‑tree secondary indexes for the reproduction of *Dynamic Query
//! Optimization in Rdb/VMS* (Antoshenkov, ICDE 1993).
//!
//! Beyond the usual insert/lookup/range-scan surface, this crate implements
//! the two estimation devices the paper's initial retrieval stage depends
//! on (Section 5):
//!
//! * **Descent to a split node** (Figure 5 of the paper): the index B-tree
//!   is used as a *hierarchical histogram*. We descend from the root along
//!   the path whose nodes entirely contain the key range; at the first node
//!   where the range spans `k+1` children the paper estimates `k · f^(l−1)`
//!   for split level `l` and average fanout `f`
//!   ([`BTree::estimate_range_paper`]). The engine's estimate,
//!   [`BTree::estimate_range`], goes on down the two edge children and sums
//!   the maintained subtree counts, so it is the exact count for at most
//!   `height + l − 1` page touches. Either is always up to date and —
//!   unlike stored histograms — detects *small and empty ranges* exactly,
//!   which the paper calls out as the case that matters most ("the
//!   smallest ranges must be detected and scanned first").
//! * **Ranked random sampling** ([`sample`]): the follow-up estimator of
//!   \[Ant92\] ("Random Sampling from Pseudo-Ranked B+ Trees"), here backed
//!   by exact subtree counts maintained in internal nodes, plus the older
//!   acceptance/rejection method of \[OlRo89\] for comparison benches.
//!
//! The stored histograms §5 argues against are study code: they live with
//! the experiment that compares them, in `rdb-bench`.
//!
//! Every read access charges the shared buffer pool / cost meter from
//! [`rdb_storage`], so index scans have realistic, cache-sensitive cost.

pub mod estimate;
pub mod key;
pub mod node;
pub mod sample;
pub mod scan;
pub mod stats;
pub mod tree;

pub use estimate::RangeEstimate;
pub use key::{cmp_key_prefix, KeyBound, KeyRange};
pub use sample::{SampleMethod, Sampler};
pub use scan::RangeScan;
pub use stats::IndexStats;
pub use tree::BTree;

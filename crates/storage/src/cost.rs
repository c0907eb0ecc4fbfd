//! Simulated cost accounting.
//!
//! Every optimizer decision in the paper compares costs: the two-stage
//! competition terminates an index scan "when the projected retrieval cost
//! approaches (e.g. becomes 95% of) the guaranteed best retrieval cost"
//! (Section 6). To make those comparisons deterministic and testable, all
//! work in this reproduction is charged to a [`CostMeter`] in *cost units*
//! where one unit is one physical page I/O. CPU-side work (record
//! evaluation, RID filtering) costs small configurable fractions, mirroring
//! the I/O-dominated cost model of 1990s disk databases.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cost-unit weights. One unit = one physical page read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConfig {
    /// Cost of a buffer-pool miss (physical I/O).
    pub io_read: f64,
    /// Cost of a buffer-pool hit (in-memory page access).
    pub cache_hit: f64,
    /// Cost of writing one page to a temporary table (RID-list spill).
    pub io_write: f64,
    /// Cost of materializing/evaluating one record (decode + restriction).
    pub cpu_record: f64,
    /// Cost of one RID-level operation (filter probe, list append, sort key).
    pub rid_op: f64,
    /// Cost of visiting one B-tree index entry during a scan.
    pub index_entry: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            io_read: 1.0,
            cache_hit: 0.01,
            io_write: 1.0,
            cpu_record: 0.001,
            rid_op: 0.0005,
            index_entry: 0.0002,
        }
    }
}

/// Monotone counters of work done, plus the weighted total in cost units.
///
/// Each query session carries its own meter via [`SharedCost`]; strategies
/// snapshot it before/after their quanta to learn their own incremental
/// cost. Counters are relaxed atomics because a meter is shared across
/// threads: the pool's default meter is charged by every thread that
/// loads or queries through it, and a [`SharedCost`] may be handed to
/// another thread. Per-counter monotonicity is all the competition logic
/// needs, and under single-threaded use the totals are bit-identical to
/// the old `Cell`-based meter.
///
/// Charging is a single integer increment per call — the weighted
/// [`CostMeter::total`] is computed on demand from the counters, so the
/// hot paths (one charge per page touch or per RID batch) never do
/// floating-point work, and the total is independent of how charges were
/// batched (`n` single charges and one charge of `n` produce bit-identical
/// totals).
#[derive(Debug, Default)]
pub struct CostMeter {
    config: CostConfig,
    page_reads: AtomicU64,
    cache_hits: AtomicU64,
    page_writes: AtomicU64,
    records_examined: AtomicU64,
    rid_ops: AtomicU64,
    index_entries: AtomicU64,
}

impl CostMeter {
    /// Creates a meter with the given weights.
    pub fn new(config: CostConfig) -> Self {
        CostMeter {
            config,
            ..CostMeter::default()
        }
    }

    /// The weights in force.
    pub fn config(&self) -> CostConfig {
        self.config
    }

    /// Charges one physical page read (buffer miss).
    pub fn charge_page_read(&self) {
        self.charge_page_reads(1);
    }

    /// Charges `n` physical page reads at once (batched access runs).
    pub fn charge_page_reads(&self, n: u64) {
        // Relaxed: an independent monotonic tally; readers only sum the
        // counters, so no ordering with other memory is needed.
        self.page_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges one buffer hit.
    pub fn charge_cache_hit(&self) {
        self.charge_cache_hits(1);
    }

    /// Charges `n` buffer hits at once (batched access runs).
    pub fn charge_cache_hits(&self, n: u64) {
        // Relaxed: same independent-tally argument as charge_page_reads.
        self.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges one temporary-table page write.
    pub fn charge_page_write(&self) {
        self.charge_page_writes(1);
    }

    /// Charges `n` temporary-table page writes at once.
    pub fn charge_page_writes(&self, n: u64) {
        // Relaxed: same independent-tally argument as charge_page_reads.
        self.page_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges examination of `n` records.
    pub fn charge_records(&self, n: u64) {
        // Relaxed: same independent-tally argument as charge_page_reads.
        self.records_examined.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges `n` RID-level operations.
    pub fn charge_rid_ops(&self, n: u64) {
        // Relaxed: same independent-tally argument as charge_page_reads.
        self.rid_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges `n` index-entry visits.
    pub fn charge_index_entries(&self, n: u64) {
        // Relaxed: same independent-tally argument as charge_page_reads.
        self.index_entries.fetch_add(n, Ordering::Relaxed);
    }

    /// Total cost units accumulated so far (computed from the counters).
    pub fn total(&self) -> f64 {
        self.snapshot().total
    }

    /// Point-in-time copy of all counters.
    ///
    /// Relaxed loads: each counter is an independent tally; the snapshot
    /// is a statistical reading, not a synchronization point, and charging
    /// is batched so concurrent deltas were never atomic across counters
    /// anyway.
    pub fn snapshot(&self) -> CostSnapshot {
        // All Relaxed — see above.
        let page_reads = self.page_reads.load(Ordering::Relaxed);
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let page_writes = self.page_writes.load(Ordering::Relaxed);
        let records_examined = self.records_examined.load(Ordering::Relaxed);
        let rid_ops = self.rid_ops.load(Ordering::Relaxed);
        let index_entries = self.index_entries.load(Ordering::Relaxed);
        let c = &self.config;
        CostSnapshot {
            page_reads,
            cache_hits,
            page_writes,
            records_examined,
            rid_ops,
            index_entries,
            total: page_reads as f64 * c.io_read
                + cache_hits as f64 * c.cache_hit
                + page_writes as f64 * c.io_write
                + records_examined as f64 * c.cpu_record
                + rid_ops as f64 * c.rid_op
                + index_entries as f64 * c.index_entry,
        }
    }

    /// Resets all counters to zero (weights are kept).
    ///
    /// Relaxed stores: reset happens between experiment phases with no
    /// concurrent chargers; there is nothing to order against.
    pub fn reset(&self) {
        self.page_reads.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.page_writes.store(0, Ordering::Relaxed);
        self.records_examined.store(0, Ordering::Relaxed);
        self.rid_ops.store(0, Ordering::Relaxed);
        self.index_entries.store(0, Ordering::Relaxed);
    }
}

/// Shared handle to one [`CostMeter`]. Meters are shared across OS threads
/// (each `Db` session owns one, and the database's default meter serves
/// every thread that queries without a session), so `Arc` over relaxed
/// atomics is the sharing primitive; the paper's "simultaneous" strategy
/// runs are cooperative quanta *within* one session.
pub type SharedCost = Arc<CostMeter>;

/// Creates a fresh shared meter with the given weights.
pub fn shared_meter(config: CostConfig) -> SharedCost {
    Arc::new(CostMeter::new(config))
}

/// Immutable snapshot of a [`CostMeter`], with subtraction for deltas.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostSnapshot {
    /// Physical page reads (buffer misses).
    pub page_reads: u64,
    /// Buffer hits.
    pub cache_hits: u64,
    /// Temporary-table page writes.
    pub page_writes: u64,
    /// Records examined.
    pub records_examined: u64,
    /// RID-level operations.
    pub rid_ops: u64,
    /// Index entries visited.
    pub index_entries: u64,
    /// Weighted total in cost units.
    pub total: f64,
}

impl CostSnapshot {
    /// Work done between `earlier` and `self`.
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            page_reads: self.page_reads - earlier.page_reads,
            cache_hits: self.cache_hits - earlier.cache_hits,
            page_writes: self.page_writes - earlier.page_writes,
            records_examined: self.records_examined - earlier.records_examined,
            rid_ops: self.rid_ops - earlier.rid_ops,
            index_entries: self.index_entries - earlier.index_entries,
            total: self.total - earlier.total,
        }
    }
}

impl fmt::Display for CostSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} units (reads={}, hits={}, writes={}, recs={}, rids={}, idx={})",
            self.total,
            self.page_reads,
            self.cache_hits,
            self.page_writes,
            self.records_examined,
            self.rid_ops,
            self.index_entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_with_weights() {
        let meter = CostMeter::new(CostConfig::default());
        meter.charge_page_read();
        meter.charge_cache_hit();
        meter.charge_records(10);
        let snap = meter.snapshot();
        assert_eq!(snap.page_reads, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.records_examined, 10);
        assert!((snap.total - (1.0 + 0.01 + 0.01)).abs() < 1e-12);
    }

    #[test]
    fn snapshot_since_gives_delta() {
        let meter = CostMeter::default();
        meter.charge_page_read();
        let before = meter.snapshot();
        meter.charge_page_read();
        meter.charge_rid_ops(4);
        let delta = meter.snapshot().since(&before);
        assert_eq!(delta.page_reads, 1);
        assert_eq!(delta.rid_ops, 4);
        assert!(delta.total > 0.0);
    }

    #[test]
    fn reset_clears_counters() {
        let meter = CostMeter::default();
        meter.charge_page_write();
        meter.reset();
        assert_eq!(meter.total(), 0.0);
        assert_eq!(meter.snapshot().page_writes, 0);
    }

    #[test]
    fn custom_weights_respected() {
        let meter = CostMeter::new(CostConfig {
            io_read: 5.0,
            ..CostConfig::default()
        });
        meter.charge_page_read();
        assert!((meter.total() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_charges_are_conserved() {
        let meter = Arc::new(CostMeter::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&meter);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        m.charge_page_read();
                        m.charge_rid_ops(2);
                    }
                });
            }
        });
        let snap = meter.snapshot();
        assert_eq!(snap.page_reads, 80_000);
        assert_eq!(snap.rid_ops, 160_000);
    }
}

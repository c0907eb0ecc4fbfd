//! Stored-histogram estimation — the baseline Section 5 argues against.
//!
//! > "A widely known estimation method based on storing the column
//! > distribution histograms unfortunately has several major drawbacks.
//! > It fully depends on costly data rescans for histogram maintenance,
//! > and it can only be used for range-producing restrictions. But even
//! > for range estimates, histograms fail to detect small ranges falling
//! > below granularity, though the smallest ranges must be detected and
//! > scanned first, often without looking at bigger ranges."
//!
//! Both classic flavours are provided so the experiments can show exactly
//! that failure mode against the descent-to-split-node estimator:
//!
//! * [`Histogram::equi_width`] — fixed-width value buckets;
//! * [`Histogram::equi_depth`] — equal-count buckets (quantiles), the
//!   System R-era production choice.
//!
//! Estimation assumes uniformity inside a bucket — the assumption that
//! breaks for ranges narrower than a bucket.

use rdb_btree::{BTree, KeyBound, KeyRange};
use rdb_storage::{CostMeter, Value};

/// A single-column histogram over numeric key values.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket boundaries: bucket `i` covers `[bounds[i], bounds[i+1])`,
    /// the last bucket is closed on the right.
    bounds: Vec<f64>,
    /// Entry count per bucket.
    counts: Vec<u64>,
    /// Total entries at build time (goes stale as the data changes —
    /// the maintenance cost the paper complains about).
    total: u64,
}

impl Histogram {
    /// Builds an equi-width histogram by scanning the index leaves (the
    /// "costly data rescan"; charged to `cost` like any scan).
    pub fn equi_width(tree: &BTree, buckets: usize, cost: &CostMeter) -> Option<Histogram> {
        let values = collect_numeric(tree, cost)?;
        let (&lo, &hi) = (values.first()?, values.last()?);
        let width = ((hi - lo) / buckets as f64).max(f64::MIN_POSITIVE);
        let mut bounds = Vec::with_capacity(buckets + 1);
        for i in 0..=buckets {
            bounds.push(lo + width * i as f64);
        }
        let mut counts = vec![0u64; buckets];
        for &v in &values {
            let b = (((v - lo) / width) as usize).min(buckets - 1);
            counts[b] += 1;
        }
        Some(Histogram {
            bounds,
            counts,
            total: values.len() as u64,
        })
    }

    /// Builds an equi-depth histogram (equal-count buckets).
    pub fn equi_depth(tree: &BTree, buckets: usize, cost: &CostMeter) -> Option<Histogram> {
        let values = collect_numeric(tree, cost)?;
        let n = values.len();
        if n == 0 {
            return None;
        }
        let mut bounds = Vec::with_capacity(buckets + 1);
        bounds.push(values[0]);
        for i in 1..buckets {
            bounds.push(values[i * n / buckets]);
        }
        bounds.push(values[n - 1]);
        // Dedup identical boundaries (heavy duplicates), keeping order.
        bounds.dedup();
        let nb = bounds.len() - 1;
        let mut counts = vec![0u64; nb];
        for &v in &values {
            // Last bucket is closed; others half-open.
            let mut b = match bounds[1..].iter().position(|&e| v < e) {
                Some(i) => i,
                None => nb - 1,
            };
            b = b.min(nb - 1);
            counts[b] += 1;
        }
        Some(Histogram {
            bounds,
            counts,
            total: n as u64,
        })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total entries the histogram was built over.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimates entries in `range` under intra-bucket uniformity. Only
    /// range-producing restrictions are supported — precisely the
    /// limitation the paper names.
    pub fn estimate_range(&self, range: &KeyRange) -> f64 {
        let lo = bound_to_f64(&range.lo).unwrap_or(f64::NEG_INFINITY);
        let hi = bound_to_f64(&range.hi).unwrap_or(f64::INFINITY);
        if lo > hi {
            return 0.0;
        }
        let mut estimate = 0.0;
        for (i, &count) in self.counts.iter().enumerate() {
            let (b_lo, b_hi) = (self.bounds[i], self.bounds[i + 1]);
            let width = (b_hi - b_lo).max(f64::MIN_POSITIVE);
            let overlap = (hi.min(b_hi) - lo.max(b_lo)).max(0.0);
            // The last bucket is closed: a point range at the very top
            // still overlaps it.
            let frac = if overlap == 0.0 && lo <= b_hi && hi >= b_lo && lo == hi {
                // Point query inside the bucket: uniformity says width⁻¹.
                1.0 / width
            } else {
                overlap / width
            };
            estimate += count as f64 * frac.min(1.0);
        }
        estimate
    }
}

fn collect_numeric(tree: &BTree, cost: &CostMeter) -> Option<Vec<f64>> {
    let mut values = Vec::with_capacity(tree.len() as usize);
    // Histogram construction is catalog work done at load time, before any
    // fault campaign arms the pool; a fault here is a harness bug.
    let mut scan = tree.range_scan(KeyRange::all(), cost);
    while let Some((key, _)) = scan.next(tree, cost).expect("histogram build read failed") {
        values.push(key[0].as_f64()?);
    }
    // Leaf order is key order: already sorted.
    Some(values)
}

fn bound_to_f64(bound: &KeyBound) -> Option<f64> {
    match bound {
        KeyBound::Unbounded => None,
        KeyBound::Inclusive(vs) | KeyBound::Exclusive(vs) => vs.first().and_then(Value::as_f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_storage::{shared_meter, shared_pool, CostConfig, FileId, Rid};

    fn tree(n: i64) -> (BTree, rdb_storage::SharedCost) {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(100_000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool, vec![0], 32);
        for i in 0..n {
            t.insert(vec![Value::Int(i)], Rid::new(i as u32, 0));
        }
        (t, cost)
    }

    #[test]
    fn wide_ranges_estimated_well() {
        let (t, cost) = tree(10_000);
        for h in [
            Histogram::equi_width(&t, 50, &cost).unwrap(),
            Histogram::equi_depth(&t, 50, &cost).unwrap(),
        ] {
            let est = h.estimate_range(&KeyRange::closed(2000, 6999));
            let truth = 5000.0;
            assert!(
                (est - truth).abs() / truth < 0.05,
                "wide range: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn small_ranges_fall_below_granularity() {
        // The paper's point: a 3-key range inside a 200-key bucket is
        // estimated from uniformity (≈3) — but so is a 0-key gap range
        // (≈ the same!), and neither is *detected*: the histogram cannot
        // distinguish empty from tiny, which descent-to-split does exactly.
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(100_000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool, vec![0], 32);
        // Keys 0..5000 with a hole at [2000, 2999].
        for i in (0..2000).chain(3000..6000) {
            t.insert(vec![Value::Int(i)], Rid::new(i as u32, 0));
        }
        // 1200-wide buckets: the 1000-key hole falls below granularity and
        // gets averaged with its bucket's live keys.
        let h = Histogram::equi_width(&t, 5, &cost).unwrap();
        let hole = h.estimate_range(&KeyRange::closed(2100, 2102));
        assert!(
            hole > 0.5,
            "histogram hallucinates rows in the hole: {hole} (cannot detect empty)"
        );
        let descent = t.estimate_range(&KeyRange::closed(2100, 2102), &cost);
        assert_eq!(descent.estimate, 0.0, "descent detects the empty range");
        assert!(descent.exact);
    }

    #[test]
    fn equi_depth_handles_skew_better_than_equi_width() {
        // 90% of keys are in [0, 10); a long sparse tail reaches 10_000.
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(100_000, cost.clone());
        let mut t = BTree::new("idx", FileId(1), pool, vec![0], 32);
        let mut rid = 0u32;
        for i in 0..9000 {
            t.insert(vec![Value::Int(i % 10)], Rid::new(rid, 0));
            rid += 1;
        }
        for i in 0..1000 {
            t.insert(vec![Value::Int(10 + i * 10)], Rid::new(rid, 0));
            rid += 1;
        }
        let truth = 9000.0; // keys < 10
        let ew = Histogram::equi_width(&t, 20, &cost).unwrap();
        let ed = Histogram::equi_depth(&t, 20, &cost).unwrap();
        let r = KeyRange::at_most(9);
        let err_w = (ew.estimate_range(&r) - truth).abs() / truth;
        let err_d = (ed.estimate_range(&r) - truth).abs() / truth;
        assert!(
            err_d < err_w,
            "equi-depth ({err_d}) must beat equi-width ({err_w}) on skew"
        );
    }

    #[test]
    fn histogram_goes_stale_descent_does_not() {
        let (mut t, cost) = tree(1000);
        let h = Histogram::equi_width(&t, 10, &cost).unwrap();
        // Insert a thousand new keys after the histogram was built.
        for i in 1000..2000 {
            t.insert(vec![Value::Int(i)], Rid::new(i as u32, 0));
        }
        let r = KeyRange::closed(1000, 1999);
        assert!(
            h.estimate_range(&r) < 10.0,
            "stale histogram misses the new data"
        );
        let d = t.estimate_range(&r, &cost);
        assert!(
            d.estimate > 300.0,
            "descent sees fresh data: {}",
            d.estimate
        );
    }

    #[test]
    fn histogram_build_charges_a_full_scan() {
        let (t, cost) = tree(5000);
        let before = cost.total();
        let _ = Histogram::equi_width(&t, 20, &cost).unwrap();
        let build_cost = cost.total() - before;
        let before = cost.total();
        let _ = t.estimate_range(&KeyRange::closed(10, 20), &cost);
        let descent_cost = cost.total() - before;
        assert!(
            build_cost > 20.0 * descent_cost.max(0.01),
            "histogram maintenance ({build_cost}) must dwarf a descent ({descent_cost})"
        );
    }
}

//! The initial retrieval stage (paper Section 5).
//!
//! "The initial retrieval stage arranges the available useful indexes into
//! single or combined scan strategies … All initial stage decisions are
//! based on estimates made with current parameters, data distribution, and
//! optimization goals in mind. In addition, the estimation phase should be
//! significantly shorter than the productive retrieval phases."
//!
//! Concretely this stage:
//!
//! 1. estimates each index's restriction range by descent to a split node,
//!    visiting indexes in "the most probable ascending RID quantity
//!    order" (the caller may pass the order learned from a previous run);
//! 2. cancels everything on an **empty range** ("delivers the 'end of
//!    data' condition at once");
//! 3. terminates estimation early on a **very short range** ("typically
//!    happens right away because of preordering … to save on estimation
//!    cost") — the OLTP fast path;
//! 4. otherwise orders the fetch-needed indexes by ascending estimate for
//!    Jscan and picks the cheapest self-sufficient index for Sscan.

use crate::request::RetrievalRequest;
use crate::sscan::Sscan;

/// What the quick estimation pass resolved without any productive scan.
#[derive(Debug, Clone, PartialEq)]
pub enum ShortcutKind {
    /// Some index range is provably empty: the whole retrieval is empty.
    EmptyResult {
        /// Name of the index that proved it.
        index: String,
    },
    /// Some index range is tiny (≤ the shortcut threshold): fetch those
    /// few RIDs directly and skip all further optimization.
    TinyRange {
        /// Position in the request's index list.
        index_pos: usize,
        /// The estimated (exact, since tiny ranges split at a leaf) count.
        count: u64,
    },
}

/// Result of the initial stage.
#[derive(Debug, Default)]
pub struct InitialPlan {
    /// Set when estimation alone resolved the retrieval.
    pub shortcut: Option<ShortcutKind>,
    /// Positions of fetch-needed indexes, ordered by ascending estimate —
    /// the Jscan scan order. For an OR-connected request: every arm's
    /// position, in request order.
    pub jscan_order: Vec<usize>,
    /// Estimates aligned with `jscan_order`.
    pub jscan_estimates: Vec<f64>,
    /// Position and scan-cost of the cheapest self-sufficient index.
    pub best_self_sufficient: Option<(usize, f64)>,
    /// Position of the best order-providing index, if any.
    pub best_order_index: Option<usize>,
    /// Total nodes visited by estimation (the stage's own cost in pages).
    pub estimation_nodes: u32,
}

/// Runs the initial stage over a bound request.
#[derive(Debug, Clone, Copy)]
pub struct InitialStage {
    /// Ranges estimated at or below this count trigger the tiny shortcut.
    pub tiny_range_threshold: u64,
}

impl Default for InitialStage {
    fn default() -> Self {
        InitialStage {
            tiny_range_threshold: 20,
        }
    }
}

impl InitialStage {
    /// Estimates and arranges the request's indexes.
    pub fn run(&self, request: &RetrievalRequest<'_>) -> InitialPlan {
        let mut plan = InitialPlan::default();
        let mut estimates: Vec<(usize, f64)> = Vec::with_capacity(request.indexes.len());

        for (pos, choice) in request.indexes.iter().enumerate() {
            let est = choice.tree.estimate_range(&choice.range, &request.cost);
            plan.estimation_nodes += est.nodes_visited;

            if est.estimate == 0.0 {
                // Empty range detected: cancel all retrieval stages.
                plan.shortcut = Some(ShortcutKind::EmptyResult {
                    index: choice.tree.name().to_owned(),
                });
                return plan;
            }
            if est.estimate as u64 <= self.tiny_range_threshold {
                // Very short range (the estimate is an exact count):
                // terminate estimation immediately — fetching a few extra
                // RIDs is cheaper than estimating the remaining indexes.
                plan.shortcut = Some(ShortcutKind::TinyRange {
                    index_pos: pos,
                    count: est.estimate as u64,
                });
                return plan;
            }
            estimates.push((pos, est.estimate));
        }

        // Ascending-estimate order for Jscan (fetch-needed usage applies to
        // every index; self-sufficiency is an additional capability).
        estimates.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (pos, est) in &estimates {
            plan.jscan_order.push(*pos);
            plan.jscan_estimates.push(*est);
        }

        // Cheapest self-sufficient index by estimated scan cost.
        plan.best_self_sufficient = request
            .indexes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.self_sufficient.is_some())
            .map(|(pos, c)| {
                let est = estimates
                    .iter()
                    .find(|(p, _)| *p == pos)
                    .map(|(_, e)| *e)
                    .unwrap_or_default();
                (pos, Sscan::scan_cost(c.tree, est))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));

        // Best order-providing index: the one with the smallest estimate
        // among those that provide the requested order.
        plan.best_order_index = estimates
            .iter()
            .find(|(pos, _)| request.indexes[*pos].provides_order)
            .map(|(pos, _)| *pos);

        plan
    }

    /// Estimates every arm of an OR-connected request. Neither shortcut
    /// applies: one empty arm proves nothing about the union, and one tiny
    /// arm does not resolve it.
    pub(crate) fn run_union(&self, request: &RetrievalRequest<'_>) -> InitialPlan {
        let mut plan = InitialPlan::default();
        for (pos, (tree, range)) in request.arms.iter().enumerate() {
            let est = tree.estimate_range(range, &request.cost);
            plan.estimation_nodes += est.nodes_visited;
            plan.jscan_order.push(pos);
            plan.jscan_estimates.push(est.estimate);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rdb_btree::BTree;
    use rdb_btree::KeyRange;
    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Schema,
        SharedPool, Value, ValueType,
    };

    use crate::request::{IndexChoice, OptimizeGoal};

    fn pool() -> SharedPool {
        shared_pool(100_000, shared_meter(CostConfig::default()))
    }

    fn setup(pool: &SharedPool, n: i64) -> (HeapTable, BTree, BTree) {
        let schema = Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
        ]);
        let mut table = HeapTable::new("t", FileId(0), schema, pool.clone());
        let mut ia = BTree::new("idx_a", FileId(1), pool.clone(), vec![0], 8);
        let mut ib = BTree::new("idx_b", FileId(2), pool.clone(), vec![1], 8);
        for i in 0..n {
            let rid = table
                .insert(Record::new(vec![Value::Int(i), Value::Int(i % 100)]))
                .unwrap();
            ia.insert(vec![Value::Int(i)], rid);
            ib.insert(vec![Value::Int(i % 100)], rid);
        }
        (table, ia, ib)
    }

    fn request<'a>(
        table: &'a HeapTable,
        indexes: Vec<IndexChoice<'a>>,
    ) -> RetrievalRequest<'a> {
        RetrievalRequest {
            table,
            indexes,
            arms: Vec::new(),
            residual: Arc::new(|_: &Record| true),
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
            cost: table.pool().cost().clone(),
        }
    }

    #[test]
    fn empty_range_cancels_everything() {
        let p = pool();
        let (table, ia, ib) = setup(&p, 1000);
        let req = request(
            &table,
            vec![
                IndexChoice::fetch_needed(&ia, KeyRange::closed(5000, 6000)),
                IndexChoice::fetch_needed(&ib, KeyRange::eq(5)),
            ],
        );
        let plan = InitialStage::default().run(&req);
        assert!(matches!(
            plan.shortcut,
            Some(ShortcutKind::EmptyResult { .. })
        ));
    }

    #[test]
    fn tiny_range_terminates_estimation_early() {
        let p = pool();
        let (table, ia, ib) = setup(&p, 5000);
        // idx_a first with a 3-key range: estimation must stop there and
        // never estimate idx_b.
        let req = request(
            &table,
            vec![
                IndexChoice::fetch_needed(&ia, KeyRange::closed(10, 12)),
                IndexChoice::fetch_needed(&ib, KeyRange::closed(0, 99)),
            ],
        );
        let plan = InitialStage::default().run(&req);
        match plan.shortcut {
            Some(ShortcutKind::TinyRange { index_pos, count }) => {
                assert_eq!(index_pos, 0);
                assert!(count <= 20, "3-key range must look tiny, got {count}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn jscan_order_is_ascending_estimate() {
        let p = pool();
        let (table, ia, ib) = setup(&p, 10_000);
        // idx_a range: ~5000 keys; idx_b range: eq(5) → 100 keys.
        let req = request(
            &table,
            vec![
                IndexChoice::fetch_needed(&ia, KeyRange::closed(0, 4999)),
                IndexChoice::fetch_needed(&ib, KeyRange::eq(5)),
            ],
        );
        let plan = InitialStage::default().run(&req);
        assert!(plan.shortcut.is_none());
        assert_eq!(plan.jscan_order, vec![1, 0], "smaller estimate first");
        assert!(plan.jscan_estimates[0] < plan.jscan_estimates[1]);
    }

    #[test]
    fn estimation_cost_is_tiny_compared_to_scan() {
        let p = pool();
        let (table, ia, _ib) = setup(&p, 50_000);
        let req = request(
            &table,
            vec![IndexChoice::fetch_needed(&ia, KeyRange::closed(0, 25_000))],
        );
        let plan = InitialStage::default().run(&req);
        // Estimation touches the descent to the split node plus its two
        // edges, at most three nodes per level; the range holds 25k
        // entries, over three thousand leaves at fanout 8.
        let h = ia.height();
        assert!(plan.estimation_nodes <= h + 2 * (h - 1));
        assert!(u64::from(plan.estimation_nodes) * 100 < 25_000 / 8);
    }

    #[test]
    fn best_self_sufficient_and_order_detected() {
        let p = pool();
        // 3000 rows: `b = 7` holds 30, above the tiny-range shortcut's 20,
        // so estimation runs to the end and both indexes are compared.
        let (table, ia, ib) = setup(&p, 3000);
        let kp: crate::request::KeyPred = Arc::new(|_: &[Value]| true);
        let req = request(
            &table,
            vec![
                IndexChoice::fetch_needed(&ia, KeyRange::closed(0, 999))
                    .with_self_sufficient(kp.clone())
                    .with_order(),
                IndexChoice::fetch_needed(&ib, KeyRange::eq(7)).with_self_sufficient(kp),
            ],
        );
        let plan = InitialStage::default().run(&req);
        let (best, _cost) = plan.best_self_sufficient.unwrap();
        assert_eq!(best, 1, "the 30-rid scan is cheaper than the 1000-rid one");
        assert_eq!(plan.best_order_index, Some(0));
    }
}

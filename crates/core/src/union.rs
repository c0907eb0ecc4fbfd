//! Union scan — OR-connected index restrictions.
//!
//! The paper lists OR coverage as the main direction for extending Jscan:
//! "Covering ORs and between-index subexpressions of table-wide Boolean
//! expressions is a rich source for extending the tactics and the
//! architecture" (Section 7), and Section 4 already frames the RID list
//! as "built by intersecting/unionizing individual index RID lists
//! according to the restriction AND/OR operations."
//!
//! [`UnionScan`] implements the unionizing half: each OR **arm** is an
//! index range; arm scans accumulate RIDs into one list that is
//! deduplicated, sorted, and fetched by the usual final stage. The
//! competition is judged by the same [`KillRules`] against the Tscan cost
//! (with a spend of zero: a union is never cut off for what it has
//! scanned, only for what it projects), once, before any arm is scanned.
//! The arm estimates are exact counts, so their sum is an upper bound on
//! the union: a union that passes this screen can never price out later.
//! What the scan decides is reported as trace notes, built only when a
//! tracer is attached.

use rdb_btree::{BTree, KeyRange};
use rdb_competition::KillRules;
use rdb_storage::{HeapTable, Rid, SharedCost, StorageError};

use crate::jscan::Jscan;
use crate::trace::{TraceEvent, Tracer};
use crate::tscan::Tscan;

/// One OR arm: an index with the range its disjunct implies.
pub struct UnionArm<'a> {
    /// The index.
    pub tree: &'a BTree,
    /// Range implied by this arm's disjunct.
    pub range: KeyRange,
    /// Entries in the range (from the initial estimation pass).
    pub estimate: f64,
}

/// Outcome of the union scan.
#[derive(Debug)]
pub enum UnionOutcome {
    /// The deduplicated, sorted RID union — feed it to the final stage.
    Rids(Vec<Rid>),
    /// The union would approach the whole table: sequential scan instead.
    UseTscan,
}

/// Scans OR-connected index ranges into one RID union, with a two-stage
/// competition against Tscan.
pub struct UnionScan<'a> {
    table: &'a HeapTable,
    arms: Vec<UnionArm<'a>>,
    rules: KillRules,
    cost: SharedCost,
}

impl<'a> UnionScan<'a> {
    /// Creates the union scan. Arms with provably empty ranges may be
    /// passed; they cost nothing.
    pub fn new(
        table: &'a HeapTable,
        arms: Vec<UnionArm<'a>>,
        rules: KillRules,
        cost: SharedCost,
    ) -> Self {
        UnionScan {
            table,
            arms,
            rules,
            cost,
        }
    }

    /// Runs the union to an outcome, noting its decisions on `tracer`.
    /// `Err` when an arm's index storage dies mid-scan: a union cannot
    /// drop an arm without losing rows, so the fault propagates instead of
    /// degrading.
    pub fn run(&mut self, tracer: &Tracer) -> Result<UnionOutcome, StorageError> {
        let tscan_cost = Tscan::full_cost(self.table);
        // The union holds at most the sum of its arms (all distinct), and
        // every arm will be scanned: if even that total prices out, go
        // sequential now.
        let estimate_sum: f64 = self.arms.iter().map(|a| a.estimate).sum();
        let projected = Jscan::fetch_cost(self.table, estimate_sum);
        if self.rules.judge(Some(projected), 0.0, tscan_cost).is_some() {
            tracer.emit_with(|| TraceEvent::Note {
                message: format!(
                    "union estimate {estimate_sum:.0} RIDs prices out (fetch ~{projected:.0} vs Tscan {tscan_cost:.0})"
                ),
            });
            return Ok(UnionOutcome::UseTscan);
        }

        // Arm order changes no row: the RIDs are sorted and deduplicated
        // at the end.
        let mut rids: Vec<Rid> = Vec::new();
        for arm in &self.arms {
            let before = rids.len();
            let mut scan = arm.tree.range_scan(arm.range.clone(), &self.cost);
            while let Some(rid) = scan.next_rid(arm.tree, &self.cost)? {
                rids.push(rid);
            }
            tracer.emit_with(|| TraceEvent::Note {
                message: format!("arm {} delivered {} RIDs", arm.tree.name(), rids.len() - before),
            });
        }
        let before = rids.len();
        rids.sort_unstable();
        rids.dedup();
        self.cost.charge_rid_ops(before as u64);
        tracer.emit_with(|| TraceEvent::Note {
            message: format!("union of {} RIDs ({} after dedup)", before, rids.len()),
        });
        Ok(UnionOutcome::Rids(rids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, FileId, Record, Schema, Value, ValueType,
    };

    fn setup(n: i64, ma: i64, mb: i64) -> (HeapTable, BTree, BTree) {
        setup_with(n, |i| (i % ma, i % mb))
    }

    /// A table of `n` rows `(a, b) = row(i)`, with an index on each column.
    fn setup_with(n: i64, row: impl Fn(i64) -> (i64, i64)) -> (HeapTable, BTree, BTree) {
        let pool = shared_pool(100_000, shared_meter(CostConfig::default()));
        let schema = Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
        ]);
        let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 1024);
        let mut ia = BTree::new("idx_a", FileId(1), pool.clone(), vec![0], 32);
        let mut ib = BTree::new("idx_b", FileId(2), pool, vec![1], 32);
        for i in 0..n {
            let (a, b) = row(i);
            let rid = table
                .insert(Record::new(vec![Value::Int(a), Value::Int(b)]))
                .unwrap();
            ia.insert(vec![Value::Int(a)], rid);
            ib.insert(vec![Value::Int(b)], rid);
        }
        (table, ia, ib)
    }

    fn arm<'a>(tree: &'a BTree, range: KeyRange) -> UnionArm<'a> {
        let estimate = tree.estimate_range(&range, tree.pool().cost()).estimate;
        UnionArm {
            tree,
            range,
            estimate,
        }
    }

    #[test]
    fn union_of_two_selective_arms() {
        let (table, ia, ib) = setup(3000, 100, 150);
        // a == 1 (30 rids) OR b == 2 (20 rids); overlap: i ≡ 1 (mod 100) &
        // i ≡ 2 (mod 150) → impossible (1 ≢ 2 mod 50) → 50 total.
        let mut u = UnionScan::new(
            &table,
            vec![arm(&ia, KeyRange::eq(1)), arm(&ib, KeyRange::eq(2))],
            KillRules::default(),
            table.pool().cost().clone(),
        );
        match u.run(&Tracer::disabled()).unwrap() {
            UnionOutcome::Rids(rids) => assert_eq!(rids.len(), 50),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overlapping_arms_dedup() {
        let (table, ia, ib) = setup(3000, 100, 100);
        // a == 1 OR b == 1 with ma == mb: identical 30-rid sets.
        let mut u = UnionScan::new(
            &table,
            vec![arm(&ia, KeyRange::eq(1)), arm(&ib, KeyRange::eq(1))],
            KillRules::default(),
            table.pool().cost().clone(),
        );
        match u.run(&Tracer::disabled()).unwrap() {
            UnionOutcome::Rids(rids) => {
                assert_eq!(rids.len(), 30);
                let mut sorted = rids.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, rids, "result is sorted");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unproductive_union_goes_to_tscan() {
        let (table, ia, ib) = setup(3000, 3, 4);
        // a <= 1 (2/3 of table) OR b == 0 (1/4): sum prices out.
        let mut u = UnionScan::new(
            &table,
            vec![
                arm(&ia, KeyRange::at_most(1)),
                arm(&ib, KeyRange::eq(0)),
            ],
            KillRules::default(),
            table.pool().cost().clone(),
        );
        assert!(matches!(u.run(&Tracer::disabled()).unwrap(), UnionOutcome::UseTscan));
    }

    /// The screen's sum of exact arm counts bounds the union from above,
    /// so a union it admits is scanned to its RIDs: nothing sends it to
    /// Tscan once its arms are paid for.
    #[test]
    fn screened_union_ends_in_its_rids() {
        let row = |i: i64| (i * 7919 % 1000, i * 104_729 % 1000);
        let (table, ia, ib) = setup_with(20_000, row);
        // a <= 6 holds 140 rows and b <= 90 holds 1 820: the sum, 1 960,
        // passes the screen.
        let arms = vec![arm(&ia, KeyRange::at_most(6)), arm(&ib, KeyRange::at_most(90))];
        assert_eq!(arms.iter().map(|a| a.estimate).sum::<f64>(), 1960.0);
        let cost = table.pool().cost().clone();
        let mut u = UnionScan::new(&table, arms, KillRules::default(), cost);
        let expected = (0..20_000).map(row).filter(|&(a, b)| a <= 6 || b <= 90).count();
        match u.run(&Tracer::disabled()).unwrap() {
            UnionOutcome::Rids(rids) => assert_eq!(rids.len(), expected),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_arms_cost_nothing() {
        let (table, ia, ib) = setup(10_000, 100, 100);
        let mut u = UnionScan::new(
            &table,
            vec![
                arm(&ia, KeyRange::eq(3)),
                arm(&ib, KeyRange::closed(500, 900)), // outside the domain
            ],
            KillRules::default(),
            table.pool().cost().clone(),
        );
        match u.run(&Tracer::disabled()).unwrap() {
            UnionOutcome::Rids(rids) => assert_eq!(rids.len(), 100),
            other => panic!("{other:?}"),
        }
    }
}

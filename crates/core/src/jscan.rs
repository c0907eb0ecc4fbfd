//! Jscan — the joint scan of fetch-needed indexes (paper Section 6,
//! Figure 6).
//!
//! Preselected indexes are scanned "in the best prearranged order, i.e.
//! roughly in the ascending selectivity direction". Each scan builds a RID
//! list (through the tiered storage of [`crate::ridlist`]), intersecting
//! against the filter left by the previously completed scan. Two
//! competition criteria, evaluated after every quantum by
//! [`KillRules::judge`], keep the scan honest:
//!
//! * **Two-stage criterion**: "The scan is terminated and discarded when
//!   the projected retrieval cost approaches (e.g. becomes 95% of) the
//!   guaranteed best retrieval cost." The projection scales the kept-RID
//!   count by scan progress and prices the final fetch stage with a
//!   Cardenas page-hit model.
//! * **Direct criterion**: "an index scan cost limit set to some
//!   proportion of the guaranteed best cost" cuts off scans whose own
//!   spend dominates an already-small guaranteed best.
//!
//! The guaranteed best starts at the full-Tscan cost and tightens every
//! time a scan completes a (shorter) RID list. If no list survives, the
//! outcome is a Tscan recommendation; an empty intersection shortcuts the
//! whole retrieval.
//!
//! The paper also offers "limited simultaneous scanning of two adjacent
//! indexes" as a remedy for a misordered preorder. The initial stage's
//! estimates are exact counts, so its order is the order of true scan
//! lengths and the remedy has nothing to repair: the scans run one after
//! another.

use rdb_btree::{BTree, KeyRange, RangeScan};
use rdb_competition::{Kill, KillRules};
use rdb_storage::{FileId, HeapTable, Rid, SharedCost};

use crate::filter::Filter;
use crate::ridlist::{RidList, RidListBuilder, RidTierConfig};
use crate::trace::{TraceEvent, Tracer};

/// Tunables of the joint scan.
#[derive(Debug, Clone, Copy)]
pub struct JscanConfig {
    /// RID-list tier sizing.
    pub tiers: RidTierConfig,
    /// Index entries processed per quantum. A quantum that finishes one
    /// index scan also opens the next, so it may additionally charge that
    /// scan's in-leaf positioning (at most the tree's `max_fanout`
    /// entries).
    pub batch: usize,
    /// Complete lists at or below this length end Jscan immediately (the
    /// "very short range" shortcut of Section 5).
    pub tiny_list_shortcut: usize,
}

impl Default for JscanConfig {
    fn default() -> Self {
        JscanConfig {
            tiers: RidTierConfig::default(),
            batch: 16,
            tiny_list_shortcut: 20,
        }
    }
}

/// Which competition criterion discarded an index scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscardReason {
    /// Projected final-stage cost reached the threshold (two-stage).
    ProjectedCost,
    /// Own scan spend exceeded its share of the guaranteed best (direct).
    ScanSpend,
    /// A join lane's storage died mid-run (injected fault); the join race
    /// continues on its other lanes. A Jscan that loses an index reports a
    /// `FaultAbsorbed` trace event instead.
    StorageFault,
}

impl From<Kill> for DiscardReason {
    fn from(kill: Kill) -> Self {
        match kill {
            Kill::Projected => DiscardReason::ProjectedCost,
            Kill::Spend => DiscardReason::ScanSpend,
        }
    }
}

/// Final product of the joint scan.
#[derive(Debug)]
pub enum JscanOutcome {
    /// The shortest intersected RID list; feed it to the final stage.
    FinalList(RidList),
    /// No index list beat the sequential scan: run Tscan.
    UseTscan,
    /// Intersection provably empty — deliver "end of data" at once.
    Empty,
}

/// Status after one quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JscanStatus {
    /// More work remains.
    Running,
    /// The outcome is ready (see [`Jscan::take_outcome`]).
    Finished,
}

/// One index given to the joint scan.
pub struct JscanIndex<'a> {
    /// The index tree.
    pub tree: &'a BTree,
    /// Its restriction range.
    pub range: KeyRange,
    /// Estimated entries in the range (from the initial stage).
    pub estimate: f64,
}

struct ActiveScan {
    /// Position in `indexes`.
    idx: usize,
    scan: RangeScan,
    builder: RidListBuilder,
    entries: u64,
    kept: u64,
    spent: f64,
    /// Galloping-probe cursor into the current intersection filter. Index
    /// scans emit RIDs mostly in ascending order, so sequential probes
    /// advance this instead of binary-searching from scratch. Reset
    /// whenever a new filter is installed.
    probe: usize,
    /// Last blended selectivity reported to the tracer (negative = never).
    /// Refinement events fire only when the estimate moves meaningfully,
    /// keeping traces (and golden files) readable.
    traced_rate: f64,
}

/// The joint-scan state machine.
pub struct Jscan<'a> {
    table: &'a HeapTable,
    indexes: Vec<JscanIndex<'a>>,
    config: JscanConfig,
    rules: KillRules,
    active: Option<ActiveScan>,
    next_index: usize,
    filter: Option<Filter>,
    complete: Option<RidList>,
    completed_scans: usize,
    tscan_cost: f64,
    guaranteed_best: f64,
    outcome: Option<JscanOutcome>,
    borrowable: Vec<Rid>,
    borrow_open: bool,
    temp_file_base: u32,
    tracer: Tracer,
    cost: SharedCost,
}

impl<'a> Jscan<'a> {
    /// Creates a joint scan over indexes already preordered by ascending
    /// estimate (the initial stage's job).
    pub fn new(
        table: &'a HeapTable,
        indexes: Vec<JscanIndex<'a>>,
        config: JscanConfig,
        rules: KillRules,
        cost: SharedCost,
    ) -> Self {
        assert!(!indexes.is_empty(), "Jscan needs at least one index");
        let tscan_cost = crate::tscan::Tscan::full_cost(table);
        let mut jscan = Jscan {
            table,
            indexes,
            config,
            rules,
            active: None,
            next_index: 0,
            filter: None,
            complete: None,
            completed_scans: 0,
            tscan_cost,
            guaranteed_best: tscan_cost,
            outcome: None,
            borrowable: Vec::new(),
            borrow_open: false,
            temp_file_base: 1_000_000,
            tracer: Tracer::disabled(),
            cost,
        };
        jscan.arm_scan();
        jscan
    }

    /// Attaches a tracer and announces the competition (candidate count,
    /// per-candidate estimates, and the Tscan cost they compete against).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        let tscan_cost = self.tscan_cost;
        let candidates = self.indexes.len();
        self.tracer.emit_with(|| TraceEvent::CompetitionStart {
            candidates,
            tscan_cost,
        });
        if self.tracer.enabled() {
            for info in &self.indexes {
                let index = info.tree.name().to_owned();
                let estimate = info.estimate.max(0.0).round() as u64;
                self.tracer
                    .emit_with(|| TraceEvent::CandidateEstimate { index, estimate });
            }
        }
    }

    /// Current guaranteed-best retrieval cost.
    pub fn guaranteed_best(&self) -> f64 {
        self.guaranteed_best
    }

    /// Completed (intersected) scans so far.
    pub fn completed_scans(&self) -> usize {
        self.completed_scans
    }

    /// Starts recording the borrow stream (see [`Jscan::borrow_rids`]).
    /// Only the fast-first foreground borrows, so a Jscan records nothing
    /// for it unless asked; ask before the first [`Jscan::step`].
    pub fn open_borrow_stream(&mut self) {
        self.borrow_open = true;
    }

    /// RIDs available for foreground borrowing (fast-first tactic): the
    /// candidate stream of the first index scan, empty unless
    /// [`Jscan::open_borrow_stream`] was called. `from` is the caller's
    /// cursor; returns the new cursor and any fresh RIDs.
    pub fn borrow_rids(&self, from: usize) -> (usize, &[Rid]) {
        let slice = &self.borrowable[from.min(self.borrowable.len())..];
        (self.borrowable.len(), slice)
    }

    /// True while the borrow stream may still grow.
    pub fn borrow_stream_open(&self) -> bool {
        self.borrow_open && self.outcome.is_none()
    }

    /// Takes the outcome after [`JscanStatus::Finished`].
    pub fn take_outcome(&mut self) -> JscanOutcome {
        self.outcome.take().expect("jscan not finished")
    }

    /// Estimated cost of fetching `n` RIDs from the table in sorted order:
    /// Cardenas' formula for distinct pages touched, plus per-record CPU.
    pub fn fetch_cost(table: &HeapTable, n: f64) -> f64 {
        let cfg = table.pool().cost_config();
        let pages = table.page_count() as f64;
        if pages == 0.0 {
            return 0.0;
        }
        let touched = pages * (1.0 - (1.0 - 1.0 / pages).powf(n));
        touched * cfg.io_read + n * cfg.cpu_record
    }

    fn cost_total(&self) -> f64 {
        self.cost.total()
    }

    fn start_scan(&mut self, idx: usize) -> ActiveScan {
        let info = &self.indexes[idx];
        let temp_file = FileId(self.temp_file_base + idx as u32);
        ActiveScan {
            idx,
            scan: info.tree.range_scan(info.range.clone(), &self.cost),
            builder: RidListBuilder::new(
                self.config.tiers,
                self.table.pool().clone(),
                temp_file,
                self.cost.clone(),
            ),
            entries: 0,
            kept: 0,
            spent: 0.0,
            probe: 0,
            traced_rate: -1.0,
        }
    }

    /// Arms the next index of the queue when no scan is active.
    fn arm_scan(&mut self) {
        if self.active.is_none() && self.next_index < self.indexes.len() {
            self.active = Some(self.start_scan(self.next_index));
            self.next_index += 1;
        }
    }

    /// Runs one quantum. The heart of Figure 6.
    pub fn step(&mut self) -> JscanStatus {
        if self.outcome.is_some() {
            return JscanStatus::Finished;
        }
        // Take the active scan out of its slot so the quantum can freely
        // read the tree, filter, and borrow stream.
        let Some(mut active) = self.active.take() else {
            return self.finalize();
        };
        let before = self.cost_total();
        let mut finished_scan = false;
        let mut fault = false;
        let tree = self.indexes[active.idx].tree;
        let is_borrow_source = active.idx == 0;
        for _ in 0..self.config.batch {
            match active.scan.next_rid(tree, &self.cost) {
                Err(_) => {
                    fault = true;
                    break;
                }
                Ok(None) => {
                    finished_scan = true;
                    break;
                }
                Ok(Some(rid)) => {
                    active.entries += 1;
                    let keep = match &self.filter {
                        Some(f) => f.contains_seq(&mut active.probe, rid),
                        None => true,
                    };
                    if keep {
                        active.kept += 1;
                        active.builder.push(rid);
                        if is_borrow_source && self.borrow_open {
                            self.borrowable.push(rid);
                        }
                    }
                }
            }
        }
        active.spent += self.cost_total() - before;
        if fault {
            // Graceful degradation: this index's storage died mid-scan.
            // Its partial list is worthless; discard the scan and let the
            // competition continue on the surviving indexes (finalize falls
            // back to Tscan if none survive).
            self.tracer.emit_with(|| TraceEvent::FaultAbsorbed {
                index: tree.name().to_owned(),
            });
            if is_borrow_source {
                self.borrow_open = false;
            }
        } else if finished_scan {
            self.complete(active);
        } else {
            self.apply_criteria(active);
        }

        if self.outcome.is_some() {
            JscanStatus::Finished
        } else {
            self.arm_scan();
            if self.active.is_none() {
                self.finalize()
            } else {
                JscanStatus::Running
            }
        }
    }

    /// Runs quanta to completion and returns the outcome.
    pub fn run(&mut self) -> JscanOutcome {
        while self.step() == JscanStatus::Running {}
        self.take_outcome()
    }

    /// Completes `active`: its list becomes the new intersection.
    fn complete(&mut self, active: ActiveScan) {
        if active.idx == 0 {
            self.borrow_open = false;
        }
        let name = self.indexes[active.idx].tree.name();
        let list = active.builder.finish();
        self.completed_scans += 1;

        if list.is_empty() {
            self.tracer.emit_with(|| TraceEvent::ScanCompleted {
                index: name.to_owned(),
                kept: 0,
                guaranteed_best: self.guaranteed_best,
            });
            self.tracer.emit_with(|| TraceEvent::Shortcut {
                kind: "empty-intersection".into(),
                detail: format!("{name} produced no RIDs: end of data"),
            });
            self.outcome = Some(JscanOutcome::Empty);
            return;
        }

        // Tighten the guaranteed best with this complete list's retrieval
        // cost and install the new intersection.
        let final_cost = Self::fetch_cost(self.table, list.len() as f64);
        if final_cost < self.guaranteed_best {
            self.guaranteed_best = final_cost;
        }
        self.tracer.emit_with(|| TraceEvent::ScanCompleted {
            index: name.to_owned(),
            kept: list.len(),
            guaranteed_best: self.guaranteed_best,
        });
        let len = list.len();
        self.filter = Some(list.filter());

        if len <= self.config.tiny_list_shortcut {
            self.tracer.emit_with(|| TraceEvent::Shortcut {
                kind: "tiny-list".into(),
                detail: format!("{len} RID(s) after {name}: remaining scans skipped"),
            });
            self.outcome = Some(JscanOutcome::FinalList(list));
        } else {
            self.complete = Some(list);
        }
    }

    /// Applies the two-stage and direct competition criteria to the scan
    /// that just worked, putting it back unless they discard it.
    ///
    /// The final-list projection blends the **observed** filter pass rate
    /// with an **independence prior** (filter size / table cardinality),
    /// weighted by how much of the scan has run. A naive `kept/progress`
    /// scale-up is fooled whenever index key order correlates with the
    /// filter (all passing RIDs arrive in one early burst); the blend
    /// starts from the prior and converges to the evidence, which is what
    /// "the cost of the final RID list retrieval can be reliably estimated
    /// from the current RID list" requires in practice.
    fn apply_criteria(&mut self, mut active: ActiveScan) {
        let guaranteed_best = self.guaranteed_best;
        let trace_enabled = self.tracer.enabled();
        let (projected, spend, idx, refined) = {
            let filter_len = self.filter.as_ref().map(|f| f.source_len());
            let cardinality = self.table.cardinality();
            let est = self.indexes[active.idx].estimate.max(active.entries as f64);
            let prior_rate = match filter_len {
                Some(len) => (len as f64 / cardinality.max(1) as f64).min(1.0),
                None => 1.0,
            };
            // Patience scales with the scan: a burst covering a few percent
            // of a long scan should not outweigh the prior yet.
            let prior_weight = (0.15 * est).max(64.0);
            let rate = (active.kept as f64 + prior_rate * prior_weight)
                / (active.entries as f64 + prior_weight);
            let remaining = (est - active.entries as f64).max(0.0);
            let projected_rids = active.kept as f64 + rate * remaining;
            let projected = Self::fetch_cost(self.table, projected_rids);
            // Report a refinement only when the blended selectivity moved
            // noticeably since the last report (5% absolute).
            let mut refined = None;
            if trace_enabled && (active.traced_rate - rate).abs() > 0.05 {
                active.traced_rate = rate;
                refined = Some(TraceEvent::EstimateRefined {
                    index: self.indexes[active.idx].tree.name().to_owned(),
                    entries: active.entries,
                    kept: active.kept,
                    selectivity: rate,
                    projected_cost: projected,
                    guaranteed_best,
                });
            }
            (projected, active.spent, active.idx, refined)
        };
        if let Some(event) = refined {
            self.tracer.emit_with(|| event);
        }
        if let Some(kill) = self.rules.judge(Some(projected), spend, guaranteed_best) {
            self.tracer.emit_with(|| TraceEvent::IndexDiscarded {
                index: self.indexes[idx].tree.name().to_owned(),
                reason: DiscardReason::from(kill),
                projected_cost: projected,
                spent: spend,
                guaranteed_best,
            });
            if idx == 0 {
                self.borrow_open = false;
            }
        } else {
            self.active = Some(active);
        }
    }

    /// All indexes processed: decide between the final list and Tscan.
    fn finalize(&mut self) -> JscanStatus {
        let outcome = match self.complete.take() {
            Some(list) if Self::fetch_cost(self.table, list.len() as f64) < self.tscan_cost => {
                JscanOutcome::FinalList(list)
            }
            _ => JscanOutcome::UseTscan,
        };
        self.outcome = Some(outcome);
        JscanStatus::Finished
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::trace::TraceBuffer;
    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, Record, Schema, SharedCost, Value,
        ValueType,
    };

    /// Attaches a trace buffer: the run's decisions are read from it.
    fn traced(j: &mut Jscan<'_>) -> Arc<TraceBuffer> {
        let buffer = TraceBuffer::shared(4096);
        j.set_tracer(Tracer::new(buffer.clone()));
        buffer
    }

    /// Builds a table with columns a, b, c and one index per column.
    /// Values: a = i % mod_a, b = i % mod_b, c = i % mod_c.
    fn setup(
        n: i64,
        mods: (i64, i64, i64),
    ) -> (HeapTable, BTree, BTree, BTree, SharedCost) {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(100_000, cost.clone());
        let schema = Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
            Column::new("c", ValueType::Int),
        ]);
        let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 1024);
        let mut ia = BTree::new("idx_a", FileId(1), pool.clone(), vec![0], 16);
        let mut ib = BTree::new("idx_b", FileId(2), pool.clone(), vec![1], 16);
        let mut ic = BTree::new("idx_c", FileId(3), pool, vec![2], 16);
        for i in 0..n {
            let (a, b, c) = (i % mods.0, i % mods.1, i % mods.2);
            let rid = table
                .insert(Record::new(vec![
                    Value::Int(a),
                    Value::Int(b),
                    Value::Int(c),
                ]))
                .unwrap();
            ia.insert(vec![Value::Int(a)], rid);
            ib.insert(vec![Value::Int(b)], rid);
            ic.insert(vec![Value::Int(c)], rid);
        }
        (table, ia, ib, ic, cost)
    }

    fn jidx<'a>(tree: &'a BTree, range: KeyRange) -> JscanIndex<'a> {
        let estimate = tree.estimate_range(&range, tree.pool().cost()).estimate;
        JscanIndex {
            tree,
            range,
            estimate,
        }
    }

    /// Jscan charging to the table pool's default meter (single-session).
    fn jscan<'a>(
        table: &'a HeapTable,
        indexes: Vec<JscanIndex<'a>>,
        config: JscanConfig,
    ) -> Jscan<'a> {
        jscan_with(table, indexes, config, KillRules::default())
    }

    fn jscan_with<'a>(
        table: &'a HeapTable,
        indexes: Vec<JscanIndex<'a>>,
        config: JscanConfig,
        rules: KillRules,
    ) -> Jscan<'a> {
        let cost = table.pool().cost().clone();
        Jscan::new(table, indexes, config, rules, cost)
    }

    /// Thresholds out of reach: keeps the kill rules out of a test.
    const NO_KILLS: KillRules = KillRules {
        switch_threshold: 100.0,
        spend_limit: 1e9,
    };

    #[test]
    fn intersects_two_selective_indexes() {
        let (table, ia, ib, _ic, _cost) = setup(2000, (50, 40, 2));
        // a == 7 (40 rids), b == 7 (50 rids), intersection: i ≡ 7 mod
        // lcm(50,40)=200 → 10 rids.
        let jscan_indexes = vec![jidx(&ia, KeyRange::eq(7)), jidx(&ib, KeyRange::eq(7))];
        let mut j = jscan(&table, jscan_indexes, JscanConfig::default());
        let trace = traced(&mut j);
        match j.run() {
            JscanOutcome::FinalList(list) => {
                assert_eq!(list.len(), 10, "events: {:?}", trace.events());
            }
            other => panic!("expected final list, got {other:?} ({:?})", trace.events()),
        }
    }

    #[test]
    fn empty_intersection_shortcuts() {
        let (table, ia, ib, _ic, _) = setup(1000, (10, 10, 2));
        // a == 3 and b == 4 can never hold together since a == b here.
        let mut j = jscan(
            &table,
            vec![jidx(&ia, KeyRange::eq(3)), jidx(&ib, KeyRange::eq(4))],
            JscanConfig::default(),
        );
        let trace = traced(&mut j);
        match j.run() {
            JscanOutcome::Empty => {}
            other => panic!("expected empty, got {other:?}"),
        }
        assert!(trace.events().iter().any(
            |e| matches!(e, TraceEvent::Shortcut { kind, .. } if kind == "empty-intersection")
        ));
    }

    #[test]
    fn unselective_index_discarded_and_tscan_recommended() {
        // One index whose range covers nearly the whole table: the
        // projected fetch cost exceeds the Tscan cost almost immediately.
        let (table, ia, _ib, _ic, _) = setup(3000, (3, 10, 2));
        let mut j = jscan(
            &table,
            vec![jidx(&ia, KeyRange::closed(0, 2))], // all records
            JscanConfig::default(),
        );
        let trace = traced(&mut j);
        match j.run() {
            JscanOutcome::UseTscan => {}
            other => panic!("expected Tscan, got {other:?} ({:?})", trace.events()),
        }
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::IndexDiscarded {
                reason: DiscardReason::ProjectedCost,
                ..
            }
        )));
    }

    #[test]
    fn selective_first_index_prunes_rest_cheaply() {
        let (table, ia, ib, _ic, _) = setup(4000, (1000, 4, 2));
        // a == 7: 4 rids (very selective, tiny-list shortcut fires);
        // b's huge range never even starts.
        let mut j = jscan(
            &table,
            vec![
                jidx(&ia, KeyRange::eq(7)),
                jidx(&ib, KeyRange::closed(0, 3)),
            ],
            JscanConfig::default(),
        );
        let trace = traced(&mut j);
        match j.run() {
            JscanOutcome::FinalList(list) => {
                assert_eq!(list.len(), 4);
                assert_eq!(list.tier(), "inline");
            }
            other => panic!("{other:?}"),
        }
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Shortcut { kind, .. } if kind == "tiny-list")));
        assert_eq!(j.completed_scans(), 1, "second index never scanned");
    }

    #[test]
    fn guaranteed_best_tightens_after_each_scan() {
        // a==1: 40 RIDs, b==1: ~66 RIDs — both selective enough that their
        // complete lists beat the Tscan bound.
        let (table, ia, ib, _ic, _) = setup(2000, (50, 30, 2));
        let mut j = jscan(
            &table,
            vec![jidx(&ia, KeyRange::eq(1)), jidx(&ib, KeyRange::eq(1))],
            JscanConfig {
                tiny_list_shortcut: 0, // disable shortcut to see both scans
                ..JscanConfig::default()
            },
        );
        let initial = j.guaranteed_best();
        assert_eq!(initial, crate::tscan::Tscan::full_cost(&table));
        let _ = j.run();
        assert!(
            j.guaranteed_best() < initial,
            "completed lists must tighten the bound"
        );
    }

    #[test]
    fn borrow_stream_provides_first_index_candidates() {
        let (table, ia, _ib, _ic, _) = setup(1000, (10, 10, 2));
        let mut j = jscan(
            &table,
            vec![jidx(&ia, KeyRange::eq(5))],
            JscanConfig {
                tiny_list_shortcut: 0,
                ..JscanConfig::default()
            },
        );
        j.open_borrow_stream();
        let mut cursor = 0;
        let mut borrowed = Vec::new();
        while j.step() == JscanStatus::Running {
            let (next, fresh) = j.borrow_rids(cursor);
            borrowed.extend_from_slice(fresh);
            cursor = next;
        }
        let (_, fresh) = j.borrow_rids(cursor);
        borrowed.extend_from_slice(fresh);
        assert_eq!(borrowed.len(), 100, "all a==5 candidates borrowable");
        match j.take_outcome() {
            JscanOutcome::FinalList(list) => assert_eq!(list.to_vec().unwrap(), borrowed),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn borrow_stream_is_not_recorded_unless_opened() {
        let (table, ia, _ib, _ic, _) = setup(1000, (10, 10, 2));
        let mut j = jscan(&table, vec![jidx(&ia, KeyRange::eq(5))], JscanConfig::default());
        assert!(matches!(j.run(), JscanOutcome::FinalList(_)));
        assert!(j.borrow_rids(0).1.is_empty(), "nobody borrows: nothing kept twice");
    }

    #[test]
    fn fetch_cost_uses_page_clustering() {
        let (table, _ia, _ib, _ic, _) = setup(2000, (10, 10, 2));
        let c_small = Jscan::fetch_cost(&table, 5.0);
        let c_large = Jscan::fetch_cost(&table, 2000.0);
        assert!(c_small < c_large);
        // Fetching every record in sorted order cannot cost more than
        // page_count I/Os plus CPU.
        let cfg = table.pool().cost_config();
        let bound = table.page_count() as f64 * cfg.io_read + 2000.0 * cfg.cpu_record + 1.0;
        assert!(c_large <= bound);
    }

    #[test]
    fn three_way_intersection() {
        let (table, ia, ib, ic, _) = setup(3000, (10, 15, 7));
        // a==1 (300), b==1 (200), c==1 (~428); intersection: i ≡ 1 mod
        // lcm(10,15,7)=210 → i in {1, 211, ..., 2941} → 15 rids.
        let mut j = jscan_with(
            &table,
            vec![
                jidx(&ib, KeyRange::eq(1)),
                jidx(&ia, KeyRange::eq(1)),
                jidx(&ic, KeyRange::eq(1)),
            ],
            JscanConfig {
                tiny_list_shortcut: 0,
                ..JscanConfig::default()
            },
            NO_KILLS,
        );
        match j.run() {
            JscanOutcome::FinalList(list) => assert_eq!(list.len(), 15),
            other => panic!("{other:?}"),
        }
        assert_eq!(j.completed_scans(), 3);
    }
}

//! The join competition: every admitted method races on the proportional
//! scheduler under the paper's two kill rules, so the dynamic optimizer
//! picks join method *and* join order per query.
//!
//! The race mirrors the single-table two-stage competition exactly:
//!
//! 1. **Admission** (planning time, infallible): methods are enumerated
//!    with closed-form estimates; anything worse than
//!    [`ADMISSION_RATIO`] × the best estimate is pruned before spending a
//!    single cost unit.
//! 2. **Race**: admitted candidates interleave in quanta of
//!    [`JOIN_BATCH`] rows. Each candidate's projected total cost is
//!    refined from its observed spend/progress ratio once it has consumed
//!    [`REFINE_FRACTION`] of its input; after every quantum each
//!    surviving candidate is put to [`KillRules::judge`] against the best
//!    rival projection — the paper's 95% rule once its own projection is
//!    refined, the direct spend criterion from the first quantum. The
//!    current best candidate is never judged, so the race always
//!    terminates with a winner.
//!
//! A storage fault kills the faulting candidate and the race continues;
//! the error only propagates when no candidate remains — so a join under
//! fault injection either returns exact rows or the injected fault,
//! never corruption.

use rdb_competition::KillRules;
use rdb_storage::StorageError;

use crate::jscan::DiscardReason;
use crate::trace::{RunTrace, TraceEvent, Tracer};

use super::estimate::{enumerate, feasible, method_cost};
use super::hash::HashJoinScan;
use super::merge::MergeJoinScan;
use super::nested::{partial_rids, IndexNestedScan, JoinScan, JoinStepOutcome, NestedLoopScan};
use super::{CandidateOutcome, JoinCandidateReport, JoinMethod, JoinRequest, JoinResult};

/// Rows consumed per scheduling quantum (see [`JoinScan::step`]).
pub const JOIN_BATCH: usize = 16;
/// Progress fraction below which a candidate's projection is not yet
/// trusted (too noisy to kill on).
pub const REFINE_FRACTION: f64 = 0.05;
/// Planning-time admission: candidates estimated worse than this multiple
/// of the best estimate are not raced at all.
pub const ADMISSION_RATIO: f64 = 4.0;

fn build_scan<'r, 'a>(
    req: &'r JoinRequest<'a>,
    method: JoinMethod,
) -> Result<Box<dyn JoinScan + 'r>, StorageError> {
    if !feasible(req, method) {
        return Err(StorageError::Corrupt("infeasible join method"));
    }
    Ok(match method {
        JoinMethod::NestedLoop { outer } => Box::new(NestedLoopScan::new(req, outer)),
        JoinMethod::IndexNested { outer } => Box::new(IndexNestedScan::new(req, outer)),
        JoinMethod::Hash { build } => Box::new(HashJoinScan::new(req, build)),
        JoinMethod::Merge => Box::new(MergeJoinScan::new(req)?),
    })
}

/// Runs exactly one join method to completion — the static baseline the
/// simulation harness differences the competition against. Returns
/// `Err(StorageError::Corrupt("infeasible join method"))` when the
/// request's shapes cannot support `method`.
pub fn run_join_method(
    req: &JoinRequest<'_>,
    method: JoinMethod,
) -> Result<JoinResult, StorageError> {
    let before = req.cost.total();
    let mut scan = build_scan(req, method)?;
    while scan.step(JOIN_BATCH)? == JoinStepOutcome::Progress {}
    let pairs = scan.take_pairs();
    let spent = req.cost.total() - before;
    let partial = pairs.iter().map(|p| (p.left_rid, p.right_rid)).collect();
    Ok(JoinResult {
        pairs,
        cost: spent,
        strategy: method.strategy(),
        candidates: vec![JoinCandidateReport {
            method,
            estimate: method_cost(req, method, &req.cost.config()),
            spent,
            outcome: CandidateOutcome::Won,
            partial,
        }],
    })
}

/// One racing candidate's book-keeping.
struct Lane<'r> {
    method: JoinMethod,
    estimate: f64,
    scan: Option<Box<dyn JoinScan + 'r>>,
    spent: f64,
    outcome: Option<(CandidateOutcome, Vec<(rdb_storage::Rid, rdb_storage::Rid)>)>,
    /// Last emitted refinement bucket (quarters of progress), so the
    /// trace shows each candidate's projection at most 4 times.
    refine_bucket: u32,
}

impl Lane<'_> {
    /// True once the scan has consumed enough input for its observed
    /// spend/progress ratio to be trusted.
    fn refined(&self) -> bool {
        self.scan
            .as_deref()
            .is_some_and(|s| s.progress() >= REFINE_FRACTION)
    }

    /// Projected total cost: observed spend extrapolated through observed
    /// progress once past [`REFINE_FRACTION`], the planning estimate
    /// before.
    fn projection(&self) -> f64 {
        match &self.scan {
            Some(scan) => {
                let p = scan.progress();
                if p >= REFINE_FRACTION && self.spent > 0.0 {
                    self.spent / p.min(1.0)
                } else {
                    self.estimate
                }
            }
            None => self.estimate,
        }
    }
}

/// Races every admitted join method and returns the winner's pairs.
///
/// Trace contract: per-candidate [`TraceEvent::JoinCandidate`] estimates,
/// one [`TraceEvent::JoinStart`], refinements/kills as they happen, then
/// [`TraceEvent::PhaseCost`] events tiling the run, a
/// [`TraceEvent::PoolDelta`], and exactly one [`TraceEvent::Winner`]
/// naming the winning method — the same envelope the single-table
/// optimizer emits, so `EXPLAIN ANALYZE` renders joins unchanged.
pub fn run_join(
    req: &JoinRequest<'_>,
    rules: &KillRules,
    tracer: &Tracer,
) -> Result<JoinResult, StorageError> {
    let cost_cfg = req.cost.config();
    let estimates = enumerate(req, &cost_cfg);
    debug_assert!(!estimates.is_empty(), "nested loop is always feasible");
    for e in &estimates {
        tracer.emit_with(|| TraceEvent::JoinCandidate {
            method: e.method.label().to_string(),
            estimate: e.cost,
        });
    }
    let best_est = estimates.first().map(|e| e.cost).unwrap_or(0.0);

    let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(estimates.len());
    let mut reports: Vec<JoinCandidateReport> = Vec::new();
    for e in &estimates {
        if e.cost > ADMISSION_RATIO * best_est.max(f64::MIN_POSITIVE) {
            // Pruned at planning time: hopeless against the best estimate.
            tracer.emit_with(|| TraceEvent::JoinKilled {
                method: e.method.label().to_string(),
                reason: DiscardReason::ProjectedCost,
                spent: 0.0,
                guaranteed_best: best_est,
            });
            reports.push(JoinCandidateReport {
                method: e.method,
                estimate: e.cost,
                spent: 0.0,
                outcome: CandidateOutcome::Killed(DiscardReason::ProjectedCost),
                partial: Vec::new(),
            });
            continue;
        }
        lanes.push(Lane {
            method: e.method,
            estimate: e.cost,
            scan: Some(build_scan(req, e.method)?),
            spent: 0.0,
            outcome: None,
            refine_bucket: 0,
        });
    }
    let admitted = lanes.len();
    tracer.emit_with(|| TraceEvent::JoinStart {
        candidates: estimates.len(),
        admitted,
        guaranteed_best: best_est,
    });

    let meter = &req.cost;
    let cost_before = meter.total();
    let pool_before = req.left.table.pool().stats();
    let mut rt = RunTrace::start(tracer, meter);

    let mut sched = rdb_competition::ProportionalScheduler::new(vec![1.0; admitted]);
    let mut winner: Option<(usize, JoinMethod)> = None;
    let mut last_fault: Option<StorageError> = None;
    // Nothing charges the meter between quanta, so one reading per
    // quantum — taken after the step — prices the lane's spend and closes
    // the trace phase.
    let mut mark = cost_before;
    let mut projections: Vec<(usize, f64)> = Vec::with_capacity(admitted);

    while let Some(i) = sched.next() {
        let Some(lane) = lanes.get_mut(i) else {
            // Scheduler lanes and race lanes are created 1:1, so an
            // out-of-range index can only mean a scheduler bug; retire
            // it rather than panic mid-race.
            sched.deactivate(i);
            continue;
        };
        let step = lane
            .scan
            .as_mut()
            .map(|s| s.step(JOIN_BATCH))
            .unwrap_or(Ok(JoinStepOutcome::Done));
        let now = meter.total();
        lane.spent += now - mark;
        mark = now;
        rt.phase_at(lane.method.phase(), now);
        match step {
            Err(e) => {
                // The faulting candidate dies; the race survives it as
                // long as anyone else is still running.
                sched.deactivate(i);
                let partial = lane.scan.as_deref().map(partial_rids).unwrap_or_default();
                let spent = lane.spent;
                let label = lane.method.label();
                tracer.emit_with(|| TraceEvent::JoinKilled {
                    method: label.to_string(),
                    reason: DiscardReason::StorageFault,
                    spent,
                    guaranteed_best: best_est,
                });
                lane.outcome =
                    Some((CandidateOutcome::Killed(DiscardReason::StorageFault), partial));
                lane.scan = None;
                if sched.active_count() == 0 {
                    return Err(last_fault.unwrap_or(e));
                }
                last_fault = Some(e);
                continue;
            }
            Ok(JoinStepOutcome::Done) => {
                winner = Some((i, lane.method));
                break;
            }
            Ok(JoinStepOutcome::Progress) => {}
        }

        // Projection refinement + kill rules over the surviving field.
        if sched.active_count() < 2 {
            continue;
        }
        projections.clear();
        projections.extend(
            lanes
                .iter()
                .enumerate()
                .filter(|&(j, _)| sched.is_active(j))
                .map(|(j, lane)| (j, lane.projection())),
        );
        // Emit a refinement event when this lane crossed a progress
        // quarter (bounded trace volume per candidate).
        if tracer.enabled() {
            if let Some(lane) = lanes.get_mut(i) {
                if let Some(scan) = lane.scan.as_deref() {
                    let progress = scan.progress();
                    let bucket = (progress * 4.0).floor() as u32;
                    if bucket > lane.refine_bucket {
                        lane.refine_bucket = bucket;
                        let proj = lane.projection();
                        let label = lane.method.label();
                        let best_other = projections
                            .iter()
                            .filter(|(j, _)| *j != i)
                            .map(|(_, p)| *p)
                            .fold(f64::INFINITY, f64::min);
                        tracer.emit_with(|| TraceEvent::JoinRefined {
                            method: label.to_string(),
                            progress,
                            projected_cost: proj,
                            guaranteed_best: best_other.min(proj),
                        });
                    }
                }
            }
        }
        let argmin = projections
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(j, _)| *j);
        for &(j, proj) in &projections {
            if Some(j) == argmin || sched.active_count() <= 1 {
                continue;
            }
            let g = projections
                .iter()
                .filter(|(k, _)| *k != j)
                .map(|(_, p)| *p)
                .fold(f64::INFINITY, f64::min);
            let Some(lane) = lanes.get_mut(j) else { continue };
            // An unrefined projection is only the planning estimate,
            // which admission has already judged. Projections are judged
            // no finer than one cost unit: against a rival projecting a
            // fraction of a page read, a lane's first quantum would
            // already be overspent.
            let projected = lane.refined().then_some(proj.max(1.0));
            let Some(kill) = rules.judge(projected, lane.spent, g.max(1.0)) else {
                continue;
            };
            let reason = DiscardReason::from(kill);
            sched.deactivate(j);
            let partial = lane.scan.as_deref().map(partial_rids).unwrap_or_default();
            let spent = lane.spent;
            let label = lane.method.label();
            tracer.emit_with(|| TraceEvent::JoinKilled {
                method: label.to_string(),
                reason,
                spent,
                guaranteed_best: g,
            });
            lane.outcome = Some((CandidateOutcome::Killed(reason), partial));
            lane.scan = None;
        }
    }

    let Some((w, method)) = winner else {
        // The scheduler ran dry without a finisher: every lane died on a
        // fault (kill rules always spare the best lane).
        return Err(last_fault.unwrap_or(StorageError::Corrupt("join race had no winner")));
    };

    let mut pairs = Vec::new();
    for (j, lane) in lanes.iter_mut().enumerate() {
        let (outcome, partial) = if j == w {
            let scan = lane.scan.as_mut();
            let won = scan.map(|s| s.take_pairs()).unwrap_or_default();
            let rids = won.iter().map(|p| (p.left_rid, p.right_rid)).collect();
            pairs = won;
            (CandidateOutcome::Won, rids)
        } else {
            match lane.outcome.take() {
                Some(done) => done,
                None => (
                    CandidateOutcome::Lost,
                    lane.scan.as_deref().map(partial_rids).unwrap_or_default(),
                ),
            }
        };
        reports.push(JoinCandidateReport {
            method: lane.method,
            estimate: lane.estimate,
            spent: lane.spent,
            outcome,
            partial,
        });
    }

    rt.finish();
    let total = meter.total() - cost_before;
    if tracer.enabled() {
        let delta = req.left.table.pool().stats().since(&pool_before);
        tracer.emit_with(|| TraceEvent::PoolDelta {
            hits: delta.hits,
            misses: delta.misses,
        });
    }
    tracer.emit_with(|| TraceEvent::Winner {
        strategy: method.strategy().to_string(),
        cost: total,
        rows: pairs.len(),
    });
    Ok(JoinResult {
        pairs,
        cost: total,
        strategy: method.strategy(),
        candidates: reports,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rdb_btree::BTree;
    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Rid, Schema,
        SharedPool, Value, ValueType,
    };

    use super::super::{JoinOp, JoinRequest, JoinSide, SideId};
    use super::*;

    struct World {
        pool: SharedPool,
        left: HeapTable,
        right: HeapTable,
        right_idx: BTree,
        left_rows: Vec<(Rid, Vec<Value>)>,
        right_rows: Vec<(Rid, Vec<Value>)>,
    }

    /// L(ID, V) with serial IDs; R(FK, X) with FK = i % 7 (every FK value
    /// matches several left IDs below 7, none at or above).
    fn world(l_rows: i64, r_rows: i64) -> World {
        let pool = shared_pool(10_000, shared_meter(CostConfig::default()));
        let mut left = HeapTable::with_page_bytes(
            "L",
            FileId(0),
            Schema::new(vec![
                Column::new("ID", ValueType::Int),
                Column::new("V", ValueType::Int),
            ]),
            pool.clone(),
            256,
        );
        let mut right = HeapTable::with_page_bytes(
            "R",
            FileId(1),
            Schema::new(vec![
                Column::new("FK", ValueType::Int),
                Column::new("X", ValueType::Int),
            ]),
            pool.clone(),
            256,
        );
        let mut right_idx = BTree::new("IDX_R_FK", FileId(2), pool.clone(), vec![0], 16);
        let mut left_rows = Vec::new();
        for i in 0..l_rows {
            let row = vec![Value::Int(i), Value::Int(i * 10)];
            let rid = left.insert(Record::new(row.clone())).unwrap();
            left_rows.push((rid, row));
        }
        let mut right_rows = Vec::new();
        for i in 0..r_rows {
            let row = vec![Value::Int(i % 7), Value::Int(i)];
            let rid = right.insert(Record::new(row.clone())).unwrap();
            right_idx.insert(vec![row[0].clone()], rid);
            right_rows.push((rid, row));
        }
        World {
            pool,
            left,
            right,
            right_idx,
            left_rows,
            right_rows,
        }
    }

    fn oracle(w: &World, op: JoinOp) -> Vec<(Rid, Rid)> {
        let mut out = Vec::new();
        for (lrid, l) in &w.left_rows {
            for (rrid, r) in &w.right_rows {
                if op.eval(&l[0], &r[0]) {
                    out.push((*lrid, *rrid));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn sorted_rids(result: &super::super::JoinResult) -> Vec<(Rid, Rid)> {
        let mut v: Vec<(Rid, Rid)> = result
            .pairs
            .iter()
            .map(|p| (p.left_rid, p.right_rid))
            .collect();
        v.sort_unstable();
        v
    }

    fn request<'a>(w: &'a World, op: JoinOp) -> JoinRequest<'a> {
        JoinRequest::new(
            JoinSide::new(&w.left).on_column(0),
            JoinSide::new(&w.right).on_column(0).with_index(&w.right_idx),
            op,
            w.pool.cost().clone(),
        )
    }

    #[test]
    fn every_method_matches_the_naive_oracle() {
        let w = world(40, 60);
        let expected = oracle(&w, JoinOp::Eq);
        assert!(!expected.is_empty());
        for method in [
            JoinMethod::NestedLoop { outer: SideId::Left },
            JoinMethod::NestedLoop { outer: SideId::Right },
            JoinMethod::IndexNested { outer: SideId::Left },
            JoinMethod::Hash { build: SideId::Left },
            JoinMethod::Hash { build: SideId::Right },
        ] {
            let req = request(&w, JoinOp::Eq);
            let result = run_join_method(&req, method).unwrap();
            assert_eq!(sorted_rids(&result), expected, "{method}");
        }
    }

    #[test]
    fn inequality_join_through_the_index_probe() {
        let w = world(10, 20);
        for op in [JoinOp::Lt, JoinOp::Ge, JoinOp::Ne] {
            let expected = oracle(&w, op);
            let req = request(&w, op);
            let result =
                run_join_method(&req, JoinMethod::IndexNested { outer: SideId::Left })
                    .unwrap();
            assert_eq!(sorted_rids(&result), expected, "{op:?}");
        }
    }

    #[test]
    fn competition_wins_with_the_oracle_row_set_and_reports_candidates() {
        let w = world(40, 60);
        let expected = oracle(&w, JoinOp::Eq);
        let req = request(&w, JoinOp::Eq);
        let result = run_join(&req, &KillRules::default(), &Tracer::disabled()).unwrap();
        assert_eq!(sorted_rids(&result), expected);
        assert!(result.strategy.starts_with("join: "));
        // Exactly one winner; every killed/losing candidate's partial
        // pairs are contained in the true result.
        let winners = result
            .candidates
            .iter()
            .filter(|c| c.outcome == CandidateOutcome::Won)
            .count();
        assert_eq!(winners, 1);
        for cand in &result.candidates {
            for pair in &cand.partial {
                assert!(
                    expected.binary_search(pair).is_ok(),
                    "{} produced a pair outside the join result",
                    cand.method
                );
            }
        }
    }

    #[test]
    fn residuals_and_pair_filters_restrict_the_result() {
        let w = world(40, 60);
        let req = JoinRequest::new(
            JoinSide::new(&w.left)
                .on_column(0)
                .with_residual(Arc::new(|r: &Record| r[0] >= Value::Int(3)), 37.0),
            JoinSide::new(&w.right).on_column(0).with_index(&w.right_idx),
            JoinOp::Eq,
            w.pool.cost().clone(),
        )
        .with_pair_filter(Arc::new(|l: &Record, r: &Record| l[1] != r[1]));
        let result = run_join(&req, &KillRules::default(), &Tracer::disabled()).unwrap();
        let expected: Vec<(Rid, Rid)> = {
            let mut v: Vec<(Rid, Rid)> = w
                .left_rows
                .iter()
                .filter(|(_, l)| l[0] >= Value::Int(3))
                .flat_map(|(lrid, l)| {
                    w.right_rows
                        .iter()
                        .filter(move |(_, r)| l[0] == r[0] && l[1] != r[1])
                        .map(move |(rrid, _)| (*lrid, *rrid))
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted_rids(&result), expected);
    }

    #[test]
    fn limit_caps_the_pair_count() {
        let w = world(40, 60);
        let req = request(&w, JoinOp::Eq).with_limit(Some(5));
        let result = run_join(&req, &KillRules::default(), &Tracer::disabled()).unwrap();
        assert_eq!(result.pairs.len(), 5);
        let expected = oracle(&w, JoinOp::Eq);
        for p in sorted_rids(&result) {
            assert!(expected.binary_search(&p).is_ok());
        }
    }

    #[test]
    fn empty_sides_join_to_empty() {
        let w = world(0, 20);
        let req = request(&w, JoinOp::Eq);
        let result = run_join(&req, &KillRules::default(), &Tracer::disabled()).unwrap();
        assert!(result.pairs.is_empty());
        let w = world(20, 0);
        let req = request(&w, JoinOp::Eq);
        let result = run_join(&req, &KillRules::default(), &Tracer::disabled()).unwrap();
        assert!(result.pairs.is_empty());
    }

    #[test]
    fn infeasible_method_is_a_typed_error() {
        let w = world(5, 5);
        let req = request(&w, JoinOp::Lt);
        let err = run_join_method(&req, JoinMethod::Merge).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    /// PARENT(ID, KIND) with unique IDs and CHILD(FK, X) with exactly
    /// `per_parent` children per parent — every index key on either side
    /// has a partner — indexed the way `Db::create_index` builds (bulk
    /// load, fanout 64), which prices merge-rid inside the admission band.
    struct PkFkWorld {
        parent: HeapTable,
        child: HeapTable,
        parent_idx: BTree,
        child_idx: BTree,
    }

    fn pk_fk_world(parents: i64, per_parent: i64) -> PkFkWorld {
        let pool = shared_pool(10_000, shared_meter(CostConfig::default()));
        let ints = |a: &str, b: &str| {
            Schema::new(vec![
                Column::new(a, ValueType::Int),
                Column::new(b, ValueType::Int),
            ])
        };
        let mut parent =
            HeapTable::with_page_bytes("PARENT", FileId(0), ints("ID", "KIND"), pool.clone(), 2048);
        let mut child =
            HeapTable::with_page_bytes("CHILD", FileId(1), ints("FK", "X"), pool.clone(), 2048);
        let mut parent_keys = Vec::new();
        for id in 0..parents {
            let rid = parent
                .insert(Record::new(vec![Value::Int(id), Value::Int(id % 16)]))
                .unwrap();
            parent_keys.push((vec![Value::Int(id)], rid));
        }
        let mut child_keys = Vec::new();
        for i in 0..parents * per_parent {
            let fk = i % parents;
            let rid = child
                .insert(Record::new(vec![Value::Int(fk), Value::Int(i % 32)]))
                .unwrap();
            child_keys.push((vec![Value::Int(fk)], rid));
        }
        let index = |name: &str, file: u32, keys| {
            BTree::bulk_load(name, FileId(file), pool.clone(), vec![0], 64, keys)
        };
        let parent_idx = index("IDX_P", 2, parent_keys);
        let child_idx = index("IDX_C", 3, child_keys);
        PkFkWorld {
            parent,
            child,
            parent_idx,
            child_idx,
        }
    }

    impl PkFkWorld {
        /// `PARENT.ID = CHILD.FK` charging a private meter.
        fn request(&self) -> JoinRequest<'_> {
            JoinRequest::new(
                JoinSide::new(&self.parent).on_column(0).with_index(&self.parent_idx),
                JoinSide::new(&self.child).on_column(0).with_index(&self.child_idx),
                JoinOp::Eq,
                shared_meter(CostConfig::default()),
            )
        }
    }

    /// The most one `step(batch)` of `method` took from the meter, by
    /// counter, over a solo run (capped: the naive loops need millions of
    /// quanta and repeat themselves).
    struct StepMax {
        records: u64,
        index_entries: u64,
    }

    fn drive(w: &PkFkWorld, method: JoinMethod, batch: usize) -> StepMax {
        let req = w.request();
        let mut scan = build_scan(&req, method).unwrap();
        let mut max = StepMax {
            records: 0,
            index_entries: 0,
        };
        for _ in 0..4_000 {
            let before = req.cost.snapshot();
            let outcome = scan.step(batch).unwrap();
            let step = req.cost.snapshot().since(&before);
            max.records = max.records.max(step.records_examined);
            max.index_entries = max.index_entries.max(step.index_entries);
            if outcome == JoinStepOutcome::Done {
                break;
            }
        }
        max
    }

    const PER_PARENT: i64 = 4;
    /// One parent entry plus its children: the largest equal-key group.
    const GROUP: u64 = 1 + PER_PARENT as u64;

    #[test]
    fn no_lane_outruns_its_quantum() {
        let w = pk_fk_world(2_000, PER_PARENT);
        let batch = JOIN_BATCH;
        let units = batch as u64 + GROUP;
        for method in [
            JoinMethod::NestedLoop { outer: SideId::Left },
            JoinMethod::NestedLoop { outer: SideId::Right },
            JoinMethod::IndexNested { outer: SideId::Left },
            JoinMethod::IndexNested { outer: SideId::Right },
            JoinMethod::Hash { build: SideId::Left },
            JoinMethod::Hash { build: SideId::Right },
            JoinMethod::Merge,
        ] {
            // Index entries one work unit may visit: the merge scans its
            // indexes entry by entry; an index-nested unit that opens a
            // probe is charged for positioning inside one leaf.
            let entries_per_unit = match method {
                JoinMethod::Merge => 1,
                JoinMethod::IndexNested { .. } => w.child_idx.max_fanout() as u64,
                _ => 0,
            };
            let max = drive(&w, method, batch);
            assert!(
                max.records <= units,
                "{method}: one step({batch}) examined {} heap rows",
                max.records
            );
            assert!(
                max.index_entries <= units * entries_per_unit,
                "{method}: one step({batch}) consumed {} index entries",
                max.index_entries
            );
        }
    }

    #[test]
    fn an_admitted_merge_is_killed_within_a_quantum_of_the_spend_limit() {
        let w = pk_fk_world(2_000, PER_PARENT);
        let rules = KillRules::default();
        // The dearest a quantum can be: every work unit a page miss plus
        // a row. (Measuring it instead would bless whatever a step does.)
        let price = CostConfig::default();
        let quantum = (JOIN_BATCH as u64 + GROUP) as f64 * (price.io_read + price.cpu_record);

        let buffer = crate::trace::TraceBuffer::shared(4096);
        let result = run_join(&w.request(), &rules, &Tracer::new(buffer.clone())).unwrap();
        assert_eq!(result.pairs.len(), 8_000);
        let (spent, guaranteed_best) = buffer
            .take()
            .iter()
            .find_map(|e| match e {
                TraceEvent::JoinKilled {
                    method,
                    spent,
                    guaranteed_best,
                    ..
                } if method == "merge-rid" && *spent > 0.0 => Some((*spent, *guaranteed_best)),
                _ => None,
            })
            .expect("merge-rid is admitted and then killed in the race");
        let report = result
            .candidates
            .iter()
            .find(|c| c.method == JoinMethod::Merge)
            .unwrap();
        assert!(matches!(report.outcome, CandidateOutcome::Killed(_)));
        assert_eq!(report.spent, spent);
        assert!(
            spent <= rules.spend_limit * guaranteed_best + quantum,
            "merge-rid spent {spent:.1} before its kill; the spend rule allows \
             {:.1} of the guaranteed best {guaranteed_best:.1} plus one quantum ({quantum:.2})",
            rules.spend_limit
        );
    }

    #[test]
    fn trace_phases_tile_the_join_run() {
        let w = world(40, 60);
        let req = request(&w, JoinOp::Eq);
        let buffer = crate::trace::TraceBuffer::shared(4096);
        let tracer = Tracer::new(buffer.clone());
        let result = run_join(&req, &KillRules::default(), &tracer).unwrap();
        let events = buffer.take();
        let phase_sum: f64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseCost { cost, .. } => Some(*cost),
                _ => None,
            })
            .sum();
        let eps = 1e-6 * result.cost.max(1.0);
        assert!(
            (phase_sum - result.cost).abs() < eps,
            "phases {phase_sum} vs total {}",
            result.cost
        );
        let winners: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Winner { .. }))
            .collect();
        assert_eq!(winners.len(), 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::JoinStart { .. })));
    }
}

//! The join competition: Section 3's two-stage competition, with the
//! guaranteed best a join method whose cost is known before it runs.
//!
//! 1. **Admission** (planning time, infallible; [`admit`]): the
//!    guaranteed lane G is the hash join building on the side with fewer
//!    estimated surviving rows, or the cheaper nested loop when no hash
//!    join is feasible. A speculative lane — index-nested or merge-rid,
//!    cheap when the data is kind and ruinous when it is not — is raced
//!    only if [`KillRules::judge`] spares its estimate against G's. Every
//!    other candidate is pruned without spending a unit.
//! 2. **Stage one**: the speculative lanes take turns, one quantum of
//!    [`JOIN_BATCH`] rows each. After each quantum the lane that ran is
//!    judged against G's estimate: on its projection (its spend
//!    extrapolated through its progress once past [`REFINE_FRACTION`]),
//!    and on what the speculative lanes have spent together. A lane that
//!    finishes wins, and G never runs.
//! 3. **Stage two**: once no speculative lane survives, G runs to
//!    completion. It is never judged.
//!
//! A join therefore costs at most (1 + `spend_limit`)·G plus one quantum
//! per speculative lane — the minmax-regret reading of Alyoubi, Helmer &
//! Wood: commit to the action whose worst case is bounded, and spend a
//! bounded amount finding out whether a better one exists.
//!
//! A storage fault kills the speculative lane it hits and the race goes
//! on; a fault in G is the join's error. So a join under fault injection
//! either returns exact rows or the injected fault, never corruption.

use rdb_competition::KillRules;
use rdb_storage::StorageError;

use crate::jscan::DiscardReason;
use crate::trace::{RunTrace, TraceEvent, Tracer};

use super::estimate::{admit, feasible};
use super::hash::HashJoinScan;
use super::merge::MergeJoinScan;
use super::nested::{IndexNestedScan, JoinScan, JoinStepOutcome, NestedLoopScan};
use super::{JoinMethod, JoinPair, JoinRequest, JoinResult};

/// Rows consumed per scheduling quantum (see [`JoinScan::step`]).
pub const JOIN_BATCH: usize = 16;
/// Progress fraction below which a speculative lane's projection is not
/// yet trusted (too noisy to kill on).
pub const REFINE_FRACTION: f64 = 0.05;

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

/// Runs `method` to completion: its pairs and what it spent.
fn run_to_end(
    req: &JoinRequest<'_>,
    method: JoinMethod,
) -> Result<(Vec<JoinPair>, f64), StorageError> {
    let before = req.cost.total();
    let mut scan = build_scan(req, method)?;
    while scan.step(JOIN_BATCH)? == JoinStepOutcome::Progress {}
    Ok((scan.take_pairs(), req.cost.total() - before))
}

/// Runs exactly one join method to completion — the static baseline the
/// simulation harness differences the competition against. Returns
/// `Err(StorageError::Corrupt("infeasible join method"))` when the
/// request's shapes cannot support `method`.
pub fn run_join_method(
    req: &JoinRequest<'_>,
    method: JoinMethod,
) -> Result<JoinResult, StorageError> {
    let (pairs, cost) = run_to_end(req, method)?;
    Ok(JoinResult {
        pairs,
        cost,
        strategy: method.strategy(),
    })
}

/// One speculative lane's book-keeping.
struct Lane<'r> {
    method: JoinMethod,
    estimate: f64,
    /// `None` once the lane has been retired.
    scan: Option<Box<dyn JoinScan + 'r>>,
    spent: f64,
    /// Last emitted refinement bucket (quarters of progress), so the
    /// trace shows each lane's projection at most 4 times.
    refine_bucket: u32,
}

impl Lane<'_> {
    /// Projected total cost — observed spend extrapolated through observed
    /// progress — once past [`REFINE_FRACTION`]; `None` before, when the
    /// only figure is the estimate admission already judged.
    fn projection(&self) -> Option<f64> {
        let progress = self.scan.as_deref()?.progress();
        (progress >= REFINE_FRACTION).then(|| self.spent / progress.min(1.0))
    }

    /// Emits a [`TraceEvent::JoinRefined`] when the lane crosses a quarter
    /// of its progress.
    fn trace_progress(&mut self, tracer: &Tracer, guaranteed_best: f64) {
        let progress = match self.scan.as_deref() {
            Some(scan) if tracer.enabled() => scan.progress(),
            _ => return,
        };
        let bucket = (progress * 4.0).floor() as u32;
        if bucket > self.refine_bucket {
            self.refine_bucket = bucket;
            let projected_cost = self.projection().unwrap_or(self.estimate);
            tracer.emit_with(|| TraceEvent::JoinRefined {
                method: self.method.label().to_string(),
                progress,
                projected_cost,
                guaranteed_best,
            });
        }
    }
}

/// Races the admitted join methods and returns the winner's pairs.
///
/// Trace contract: per-candidate [`TraceEvent::JoinCandidate`] estimates,
/// a [`TraceEvent::JoinKilled`] with nothing spent for every pruned
/// candidate, one [`TraceEvent::JoinStart`] counting the speculative
/// lanes plus G, refinements/kills as they happen, then
/// [`TraceEvent::PhaseCost`] events tiling the run, a
/// [`TraceEvent::PoolDelta`], and exactly one [`TraceEvent::Winner`]
/// naming the winning method — the same envelope the single-table
/// optimizer emits, so `EXPLAIN ANALYZE` renders joins unchanged.
pub fn run_join(
    req: &JoinRequest<'_>,
    rules: &KillRules,
    tracer: &Tracer,
) -> Result<JoinResult, StorageError> {
    let admission = admit(req, rules, &req.cost.config());
    let g = admission.guaranteed;
    for e in &admission.candidates {
        tracer.emit_with(|| TraceEvent::JoinCandidate {
            method: e.method.label().to_string(),
            estimate: e.cost,
        });
    }
    for e in admission.pruned() {
        tracer.emit_with(|| TraceEvent::JoinKilled {
            method: e.method.label().to_string(),
            reason: DiscardReason::ProjectedCost,
            spent: 0.0,
            guaranteed_best: g.cost,
        });
    }
    let mut lanes = Vec::with_capacity(admission.speculative.len());
    for e in &admission.speculative {
        lanes.push(Lane {
            method: e.method,
            estimate: e.cost,
            scan: Some(build_scan(req, e.method)?),
            spent: 0.0,
            refine_bucket: 0,
        });
    }
    tracer.emit_with(|| TraceEvent::JoinStart {
        candidates: admission.candidates.len(),
        admitted: lanes.len() + 1,
        guaranteed_best: g.cost,
    });

    let meter = &req.cost;
    let cost_before = meter.total();
    let pool_before = tracer.enabled().then(|| req.left.table.pool().stats());
    let mut rt = RunTrace::start(tracer, meter);
    // Nothing charges the meter between quanta, so one reading per
    // quantum — taken after the step — prices the lane's spend and closes
    // the trace phase.
    let mut mark = cost_before;
    let mut speculative_spent = 0.0;

    // Stage one: the speculative lanes, one quantum each in turn.
    let mut winner = None;
    while winner.is_none() && lanes.iter().any(|l| l.scan.is_some()) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let Some(scan) = lane.scan.as_mut() else {
                continue;
            };
            let step = scan.step(JOIN_BATCH);
            let now = meter.total();
            lane.spent += now - mark;
            speculative_spent += now - mark;
            mark = now;
            rt.phase_at(lane.method.phase(), now);
            let reason = match step {
                Ok(JoinStepOutcome::Done) => {
                    winner = Some(i);
                    break;
                }
                // The faulting lane dies; G is still there to finish.
                Err(_) => DiscardReason::StorageFault,
                Ok(JoinStepOutcome::Progress) => {
                    lane.trace_progress(tracer, g.cost);
                    match rules.judge(lane.projection(), speculative_spent, g.cost) {
                        Some(kill) => DiscardReason::from(kill),
                        None => continue,
                    }
                }
            };
            tracer.emit_with(|| TraceEvent::JoinKilled {
                method: lane.method.label().to_string(),
                reason,
                spent: lane.spent,
                guaranteed_best: g.cost,
            });
            lane.scan = None;
        }
    }

    let (method, pairs) = match winner.and_then(|w| lanes.get_mut(w)) {
        Some(lane) => {
            let pairs = lane
                .scan
                .as_mut()
                .map(|s| s.take_pairs())
                .unwrap_or_default();
            (lane.method, pairs)
        }
        None => {
            // Stage two: G runs to completion, never judged.
            let (pairs, _) = run_to_end(req, g.method)?;
            rt.phase_at(g.method.phase(), meter.total());
            (g.method, pairs)
        }
    };

    rt.finish();
    let total = meter.total() - cost_before;
    if let Some(before) = pool_before {
        let delta = req.left.table.pool().stats().since(&before);
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

    use super::super::estimate::enumerate;
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
        let buffer = crate::trace::TraceBuffer::shared(4096);
        let result = run_join(&req, &KillRules::default(), &Tracer::new(buffer.clone())).unwrap();
        assert_eq!(sorted_rids(&result), expected);
        assert!(result.strategy.starts_with("join: "));
        // Every enumerated candidate is announced, and exactly one winner
        // names the method whose pairs were delivered.
        let events = buffer.take();
        let announced = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::JoinCandidate { .. }))
            .count();
        let enumerated = events.iter().find_map(|e| match e {
            TraceEvent::JoinStart { candidates, .. } => Some(*candidates),
            _ => None,
        });
        assert_eq!(Some(announced), enumerated);
        let winners: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Winner { strategy, .. } => Some(strategy.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(winners, [result.strategy]);
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
        .with_pair_filter(Arc::new(|l: &[Value], r: &[Value]| l[1] != r[1]));
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
    /// load, fanout 64).
    struct PkFkWorld {
        pool: SharedPool,
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
            pool,
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

    /// Section 3's L-shaped pair: PARENT ⋈ CHILD with a left residual
    /// keeping `ID % every == every - 1` and estimated at 4 surviving
    /// parents. With `every` = 500 the estimate is the truth; with 16 it
    /// understates the 125 survivors 31×. The planner sees the same
    /// request either way: index-nested(outer=left) looks cheap, so it
    /// races against hash(build=left).
    fn l_shaped(w: &PkFkWorld, every: i64) -> JoinRequest<'_> {
        let keep: crate::request::RecordPred = Arc::new(move |r: &Record| {
            r.get(0)
                .and_then(Value::as_i64)
                .is_some_and(|id| id % every == every - 1)
        });
        JoinRequest::new(
            JoinSide::new(&w.parent)
                .on_column(0)
                .with_index(&w.parent_idx)
                .with_residual(keep, 4.0),
            JoinSide::new(&w.child).on_column(0).with_index(&w.child_idx),
            JoinOp::Eq,
            shared_meter(CostConfig::default()),
        )
    }

    const INDEX_NESTED_LEFT: JoinMethod = JoinMethod::IndexNested { outer: SideId::Left };
    const HASH_LEFT: JoinMethod = JoinMethod::Hash { build: SideId::Left };

    #[test]
    fn an_understated_lane_dies_within_the_two_stage_bound() {
        let w = pk_fk_world(2_000, PER_PARENT);
        let rules = KillRules::default();
        let req = l_shaped(&w, 16);
        let admission = admit(&req, &rules, &req.cost.config());
        let g = admission.guaranteed;
        assert_eq!(g.method, HASH_LEFT);
        let speculative: Vec<_> = admission.speculative.iter().map(|e| e.method).collect();
        assert_eq!(speculative, [INDEX_NESTED_LEFT]);
        // The dearest a quantum can be: every work unit a full descent of
        // the child index plus a fetch, every page a miss. (Measuring it
        // instead would bless whatever a step does.)
        let price = CostConfig::default();
        let pages_per_unit = w.child_idx.height() as f64 + 1.0;
        let quantum = JOIN_BATCH as f64 * (pages_per_unit * price.io_read + price.cpu_record);

        w.pool.clear();
        let buffer = crate::trace::TraceBuffer::shared(4096);
        let result = run_join(&req, &rules, &Tracer::new(buffer.clone())).unwrap();
        assert_eq!(result.strategy, g.method.strategy());
        assert_eq!(result.pairs.len(), 125 * PER_PARENT as usize);
        let (spent, guaranteed_best) = buffer
            .take()
            .iter()
            .find_map(|e| match e {
                TraceEvent::JoinKilled {
                    method,
                    spent,
                    guaranteed_best,
                    ..
                } if *method == INDEX_NESTED_LEFT.label() => Some((*spent, *guaranteed_best)),
                _ => None,
            })
            .expect("index-nested is admitted and then killed in the race");
        assert_eq!(guaranteed_best, g.cost);
        assert!(spent > 0.0);
        assert!(
            spent <= rules.spend_limit * g.cost + quantum,
            "index-nested spent {spent:.1} before its kill; the spend rule allows \
             {:.1} of G's {:.1} plus one quantum ({quantum:.1})",
            rules.spend_limit,
            g.cost
        );
        assert!(
            result.cost <= (1.0 + rules.spend_limit) * g.cost + quantum,
            "the race cost {:.1}; two-stage allows (1 + {:.1}) x {:.1} plus one quantum",
            result.cost,
            rules.spend_limit,
            g.cost
        );
    }

    #[test]
    fn a_truthful_lane_wins_and_the_guaranteed_lane_spends_nothing() {
        let w = pk_fk_world(2_000, PER_PARENT);
        let rules = KillRules::default();
        let req = l_shaped(&w, 500);
        w.pool.clear();
        let buffer = crate::trace::TraceBuffer::shared(4096);
        let result = run_join(&req, &rules, &Tracer::new(buffer.clone())).unwrap();
        assert_eq!(result.strategy, INDEX_NESTED_LEFT.strategy());
        assert_eq!(result.pairs.len(), 4 * PER_PARENT as usize);
        let events = buffer.take();
        let g_estimate = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::JoinCandidate { method, estimate } if method == HASH_LEFT.label() => {
                    Some(*estimate)
                }
                _ => None,
            })
            .expect("G is a candidate");
        // G is never killed and never charged: no kill names it, and no
        // phase of the run is its method's.
        assert!(!events.iter().any(
            |e| matches!(e, TraceEvent::JoinKilled { method, .. } if method == HASH_LEFT.label())
        ));
        assert!(!events.iter().any(
            |e| matches!(e, TraceEvent::PhaseCost { phase, .. } if phase == HASH_LEFT.phase())
        ));
        assert!(
            result.cost < g_estimate,
            "{} vs G's {g_estimate}",
            result.cost
        );
    }

    #[test]
    fn enumerate_lists_one_hash_building_on_the_smaller_side() {
        let w = pk_fk_world(200, PER_PARENT);
        let hashes = |req: &JoinRequest<'_>| -> Vec<JoinMethod> {
            enumerate(req, &CostConfig::default())
                .into_iter()
                .map(|e| e.method)
                .filter(|m| matches!(m, JoinMethod::Hash { .. }))
                .collect()
        };
        fn side(table: &HeapTable) -> JoinSide<'_> {
            JoinSide::new(table).on_column(0)
        }
        let cost = || shared_meter(CostConfig::default());
        // Fewer estimated rows builds: 200 parents against 800 children,
        // then a right residual estimated at 10.
        assert_eq!(hashes(&w.request()), [HASH_LEFT]);
        let all: crate::request::RecordPred = Arc::new(|_| true);
        let req = JoinRequest::new(
            side(&w.parent),
            side(&w.child).with_residual(all, 10.0),
            JoinOp::Eq,
            cost(),
        );
        assert_eq!(hashes(&req), [JoinMethod::Hash { build: SideId::Right }]);
        // Equal estimates: fewer pages builds; equal pages too: left.
        fn even(table: &HeapTable) -> JoinSide<'_> {
            side(table).with_residual(Arc::new(|_| true), 50.0)
        }
        let req = JoinRequest::new(even(&w.child), even(&w.parent), JoinOp::Eq, cost());
        assert_eq!(hashes(&req), [JoinMethod::Hash { build: SideId::Right }]);
        let req = JoinRequest::new(side(&w.parent), side(&w.parent), JoinOp::Eq, cost());
        assert_eq!(hashes(&req), [HASH_LEFT]);
    }

    #[test]
    fn with_nothing_speculative_the_race_costs_its_guaranteed_lane() {
        let w = pk_fk_world(2_000, PER_PARENT);
        let rules = KillRules::default();
        let req = w.request();
        let admission = admit(&req, &rules, &req.cost.config());
        assert!(admission.speculative.is_empty());
        w.pool.clear();
        let race = run_join(&req, &rules, &Tracer::disabled()).unwrap();
        w.pool.clear();
        let alone = run_join_method(&req, admission.guaranteed.method).unwrap();
        assert_eq!(race.strategy, alone.strategy);
        assert_eq!(race.cost, alone.cost);
        assert_eq!(race.pairs, alone.pairs);
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

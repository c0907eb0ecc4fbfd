//! The four retrieval tactics of paper Section 7, built on the
//! foreground/background/final-stage structure of Figure 4.
//!
//! * [`background_only`] — total-time goal, fetch-needed indexes only:
//!   Jscan, then a final stage that sorts the RID list so "several records
//!   on a single page [are accessed] only once".
//! * `fast_first` — same index situation, fast-first goal: a foreground
//!   process *borrows* RIDs from the background Jscan, fetches and
//!   delivers immediately, and is killed by direct competition once
//!   fast-first satisfaction "becomes less realistic".
//! * `sorted` — fast-first with a requested order: a foreground Fscan on
//!   the order-needed index takes turns with a background Jscan whose
//!   complete filter then rejects Fscan RIDs *before* fetching.
//! * `index_only` — self-sufficient indexes available: the best Sscan
//!   (foreground, "much safer") races Jscan (background); foreground
//!   buffer overflow kills Jscan, a small complete RID list kills Sscan.
//!
//! An OR-connected restriction runs `union_scan`, the extension Section 7
//! names: the union of its arms' RID lists ([`crate::union`]), fetched by
//! the same final stage.
//!
//! The three competitive tactics are each written **once** against the
//! cooperative driver `Inline`, which answers three questions — whose turn
//! is it, what did the background just report, and stop. It owns the
//! Jscan and interleaves its quanta with the foreground's through a
//! [`ProportionalScheduler`], so a run is deterministic. A tactic with
//! nothing to put in the background (no second index) runs on an `Inline`
//! driver that holds no Jscan.

use rdb_competition::{KillRules, ProportionalScheduler};
use rdb_storage::{HeapTable, Record, Rid, SharedCost, StorageError};

use crate::fscan::Fscan;
use crate::jscan::{Jscan, JscanOutcome, JscanStatus};
use crate::request::{RecordPred, RetrievalRequest, Sink};
use crate::ridlist::RidList;
use crate::sscan::Sscan;
use crate::trace::{RunTrace, TraceEvent};
use crate::tscan::{StrategyStep, Tscan};
use crate::union::{UnionArm, UnionOutcome, UnionScan};

/// Capacity of the foreground buffer of delivered RIDs; overflow
/// terminates the foreground (fast-first) or the background (index-only,
/// where the foreground is the safer side).
const FGR_BUFFER_CAPACITY: usize = 1024;
/// Scheduler speed of the foreground relative to the background's 1.0.
const FGR_SPEED: f64 = 1.0;
/// Index entries one index-only foreground quantum advances, so that the
/// race against Jscan (which also works in entry batches) compares like
/// with like — the paper's proportional speeds are in work done, not in
/// scheduler slots.
const FGR_BATCH: usize = 16;

/// Steps a lone strategy to its end, handing every row it finds to
/// `deliver`. Returns `Ok(false)` if `deliver` stopped it early (the
/// sink's limit was reached), `Ok(true)` if the strategy ran dry.
#[inline]
pub(crate) fn drain(
    mut step: impl FnMut() -> Result<StrategyStep, StorageError>,
    mut deliver: impl FnMut(Rid, Option<Record>) -> bool,
) -> Result<bool, StorageError> {
    loop {
        match step()? {
            StrategyStep::Deliver(rid, record) => {
                if !deliver(rid, record) {
                    return Ok(false);
                }
            }
            StrategyStep::Progress => {}
            StrategyStep::Done => return Ok(true),
        }
    }
}

/// Final retrieval stage: fetch the listed RIDs in **sorted order** (one
/// page touch per page), evaluate the total restriction, and deliver —
/// excluding RIDs the foreground already delivered.
pub fn final_stage(
    table: &HeapTable,
    list: &RidList,
    residual: &RecordPred,
    exclude: &[Rid],
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
    cost: &SharedCost,
) -> Result<(), StorageError> {
    let result = final_stage_inner(table, list, residual, exclude, sink, cost);
    rt.phase("final-stage");
    result
}

fn final_stage_inner(
    table: &HeapTable,
    list: &RidList,
    residual: &RecordPred,
    exclude: &[Rid],
    sink: &mut Sink,
    cost: &SharedCost,
) -> Result<(), StorageError> {
    let mut rids = list.to_vec()?;
    rids.sort_unstable();
    rids.dedup();
    let mut excluded: Vec<Rid> = exclude.to_vec();
    excluded.sort_unstable();
    for rid in rids {
        if excluded.binary_search(&rid).is_ok() {
            continue;
        }
        match table.fetch(rid, cost) {
            Ok(record) => {
                if residual(&record) && !sink.deliver(rid, Some(record)) {
                    return Ok(());
                }
            }
            // Deleted under us between list build and fetch: skip.
            Err(e) if e.is_benign_for_scan() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Full-table fallback scan, excluding already-delivered RIDs.
pub(crate) fn run_tscan(
    table: &HeapTable,
    residual: &RecordPred,
    exclude: &[Rid],
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
    cost: &SharedCost,
) -> Result<(), StorageError> {
    let mut excluded: Vec<Rid> = exclude.to_vec();
    excluded.sort_unstable();
    let mut scan = Tscan::new(table, residual.clone(), cost.clone());
    let ran = drain(
        || scan.step(),
        |rid, record| excluded.binary_search(&rid).is_ok() || sink.deliver(rid, record),
    );
    rt.phase("tscan");
    ran.map(|_| ())
}

/// What the tactic does once the joint scan has said all it will say:
/// fetch its list, fall back to the full scan, or nothing (proved empty).
fn retrieve_by_outcome(
    request: &RetrievalRequest<'_>,
    outcome: JscanOutcome,
    exclude: &[Rid],
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
) -> Result<(), StorageError> {
    let (table, residual, cost) = (request.table, &request.residual, &request.cost);
    match outcome {
        JscanOutcome::Empty => Ok(()),
        JscanOutcome::FinalList(list) => {
            final_stage(table, &list, residual, exclude, sink, rt, cost)
        }
        JscanOutcome::UseTscan => {
            rt.tracer().emit_with(|| TraceEvent::Switch {
                from: "jscan".into(),
                to: "tscan".into(),
                reason: "no surviving RID list beat the full-scan cost".into(),
            });
            run_tscan(table, residual, exclude, sink, rt, cost)
        }
    }
}

/// **Background-only tactic** (Section 7): total-time optimization with
/// fetch-needed indexes. Runs Jscan to completion, then the final stage
/// (or Tscan if Jscan recommends it). Returns the detailed strategy that
/// produced the rows, as every tactic does.
pub fn background_only(
    request: &RetrievalRequest<'_>,
    mut jscan: Jscan<'_>,
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
) -> Result<&'static str, StorageError> {
    let outcome = jscan.run();
    rt.phase("jscan");
    let strategy = match &outcome {
        JscanOutcome::Empty => "background-only (empty)",
        JscanOutcome::FinalList(_) => "background-only (Jscan + final stage)",
        JscanOutcome::UseTscan => "background-only (Jscan -> Tscan)",
    };
    retrieve_by_outcome(request, outcome, &[], sink, rt)?;
    Ok(strategy)
}

/// The union tactic of an OR-connected request: scans the non-empty
/// `request.arms` (`estimates` parallel to them) into one RID union and
/// fetches it through the final stage, or runs Tscan if the union prices
/// out. Returns the detailed strategy that produced the rows.
pub(crate) fn union_scan(
    request: &RetrievalRequest<'_>,
    estimates: &[f64],
    rules: KillRules,
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
) -> Result<&'static str, StorageError> {
    let (table, residual, cost) = (request.table, &request.residual, &request.cost);
    let tracer = rt.tracer();
    let mut arms = Vec::with_capacity(request.arms.len());
    for ((tree, range), &estimate) in request.arms.iter().zip(estimates) {
        tracer.emit_with(|| TraceEvent::CandidateEstimate {
            index: tree.name().to_owned(),
            estimate: estimate.max(0.0).round() as u64,
        });
        if estimate == 0.0 {
            tracer.emit_with(|| TraceEvent::Shortcut {
                kind: "empty-arm".into(),
                detail: format!("arm {} provably empty: dropped", tree.name()),
            });
            continue;
        }
        let range = range.clone();
        arms.push(UnionArm { tree, range, estimate });
    }
    let outcome = UnionScan::new(table, arms, rules, cost.clone()).run(tracer);
    rt.phase("union");
    match outcome? {
        UnionOutcome::Rids(rids) => {
            let list = RidList::from_vec(rids);
            final_stage(table, &list, residual, &[], sink, rt, cost)?;
            Ok("UnionScan")
        }
        UnionOutcome::UseTscan => {
            rt.tracer().emit_with(|| TraceEvent::Switch {
                from: "union".into(),
                to: "tscan".into(),
                reason: "union of arms priced out: full scan is cheaper".into(),
            });
            run_tscan(table, residual, &[], sink, rt, cost)?;
            Ok("UnionScan -> Tscan")
        }
    }
}

/// Whose quantum is next in a foreground/background competition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    /// The tactic's own scan (or borrowing fetch) runs one quantum.
    Foreground,
    /// The background has something to do or to say: call
    /// [`Background::step`].
    Background,
}

/// The background process of Figure 4 as the tactic bodies see it.
///
/// [`Inline`] is the one driver: it decides how the background Jscan
/// advances relative to the foreground, and the tactics decide everything
/// else. Dropping a driver abandons its background. The trait stays as the
/// seam of `tests::no_competitor_outruns_its_quantum`, whose wrapper reads
/// the meter around every quantum `Inline` hands out.
pub(crate) trait Background {
    /// Whose quantum is next; `None` once neither side is left running.
    fn turn(&mut self) -> Option<Turn>;
    /// Takes a [`Turn::Background`]: `Some` exactly once, with the joint
    /// scan's outcome when it has finished — the background then leaves
    /// the race.
    fn step(&mut self, rt: &mut RunTrace<'_>) -> Option<JscanOutcome>;
    /// The next RID of the background's borrow stream (the candidates of
    /// its first index scan) not handed out yet.
    fn borrow(&mut self) -> Option<Rid>;
    /// False once [`Background::borrow`] can never yield again.
    fn borrow_open(&self) -> bool;
    /// The background's current guaranteed-best retrieval cost.
    fn guaranteed_best(&self) -> f64;
    /// Takes the foreground out of the race; the background runs alone.
    fn retire_foreground(&mut self);
    /// Abandons the background; the foreground runs alone. True if there
    /// was a background still competing.
    fn stop(&mut self) -> bool;
}

const FGR: usize = 0;
const BGR: usize = 1;

/// The cooperative driver: foreground and background quanta interleave on
/// the calling thread at proportional speeds, so a run is deterministic
/// and every cost lands on the one session meter as it is incurred.
pub(crate) struct Inline<'a> {
    jscan: Option<Jscan<'a>>,
    sched: ProportionalScheduler,
    /// How much of the Jscan's borrow stream has been handed out.
    cursor: usize,
}

impl<'a> Inline<'a> {
    /// A driver over `jscan`; `None` is a competition with no background.
    pub(crate) fn new(jscan: Option<Jscan<'a>>) -> Self {
        let mut sched = ProportionalScheduler::new(vec![FGR_SPEED, 1.0]);
        if jscan.is_none() {
            sched.deactivate(BGR);
        }
        Inline {
            jscan,
            sched,
            cursor: 0,
        }
    }
}

impl Background for Inline<'_> {
    fn turn(&mut self) -> Option<Turn> {
        self.sched.next().map(|who| match who {
            FGR => Turn::Foreground,
            _ => Turn::Background,
        })
    }

    fn step(&mut self, rt: &mut RunTrace<'_>) -> Option<JscanOutcome> {
        let status = self.jscan.as_mut()?.step();
        rt.phase("jscan");
        if status == JscanStatus::Running {
            return None;
        }
        self.sched.deactivate(BGR);
        self.jscan.take().as_mut().map(Jscan::take_outcome)
    }

    fn borrow(&mut self) -> Option<Rid> {
        let (_, fresh) = self.jscan.as_ref()?.borrow_rids(self.cursor);
        let rid = *fresh.first()?;
        self.cursor += 1;
        Some(rid)
    }

    fn borrow_open(&self) -> bool {
        self.jscan.as_ref().is_some_and(Jscan::borrow_stream_open)
    }

    fn guaranteed_best(&self) -> f64 {
        self.jscan
            .as_ref()
            .map_or(f64::INFINITY, Jscan::guaranteed_best)
    }

    fn retire_foreground(&mut self) {
        self.sched.deactivate(FGR);
    }

    fn stop(&mut self) -> bool {
        self.sched.deactivate(BGR);
        self.jscan.take().is_some()
    }
}

/// The foreground process a competitive tactic runs against its
/// background — which is to say, which tactic it is.
pub(crate) enum Foreground<'a> {
    /// [`fast_first`]: fetch what the background's first scan turns up.
    Borrowing,
    /// [`sorted`]: the ordered Fscan.
    Ordered(Fscan<'a>),
    /// [`index_only`]: the self-sufficient Sscan.
    SelfSufficient(Sscan<'a>),
}

/// Runs the competitive tactic `foreground` selects against `bgr`.
pub(crate) fn compete<B: Background>(
    foreground: Foreground<'_>,
    bgr: &mut B,
    request: &RetrievalRequest<'_>,
    rules: &KillRules,
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
) -> Result<&'static str, StorageError> {
    match foreground {
        Foreground::Borrowing => fast_first(request, rules, bgr, sink, rt),
        Foreground::Ordered(fscan) => sorted(fscan, bgr, sink, rt),
        Foreground::SelfSufficient(sscan) => index_only(request, sscan, bgr, sink, rt),
    }
}

/// **Fast-first tactic** (Section 7): the foreground borrows RIDs from the
/// background Jscan, fetches and delivers immediately; a direct
/// foreground/background competition decides when immediate delivery stops
/// paying.
pub(crate) fn fast_first<B: Background>(
    request: &RetrievalRequest<'_>,
    rules: &KillRules,
    bgr: &mut B,
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
) -> Result<&'static str, StorageError> {
    let (table, residual, cost) = (request.table, &request.residual, &request.cost);
    let mut fgr_buffer: Vec<Rid> = Vec::new();
    let mut fgr_spend = 0.0;
    let mut fgr_alive = true;
    let mut finished: Option<JscanOutcome> = None;

    while finished.is_none() {
        let Some(turn) = bgr.turn() else { break };
        if turn == Turn::Background {
            finished = bgr.step(rt);
            continue;
        }
        let Some(rid) = bgr.borrow() else {
            if !bgr.borrow_open() {
                // Nothing left to borrow, ever: the foreground has done
                // all it can.
                bgr.retire_foreground();
                fgr_alive = false;
            }
            continue;
        };
        let before = cost.total();
        match table.fetch(rid, cost) {
            Ok(record) => {
                if residual(&record) {
                    fgr_buffer.push(rid);
                    if !sink.deliver(rid, Some(record)) {
                        rt.phase("foreground");
                        return Ok("fast-first (foreground satisfied)");
                    }
                }
            }
            // Deleted under us: the borrowed RID went stale; skip.
            Err(e) if e.is_benign_for_scan() => {}
            Err(e) => return Err(e),
        }
        fgr_spend += cost.total() - before;
        rt.phase("foreground");
        // Direct competition: overflow or overspend kills Fgr.
        let guaranteed_best = bgr.guaranteed_best();
        if fgr_buffer.len() >= FGR_BUFFER_CAPACITY {
            rt.tracer().emit_with(|| TraceEvent::Switch {
                from: "fast-first".into(),
                to: "background-only".into(),
                reason: "foreground buffer overflow".into(),
            });
        } else if rules.judge(None, fgr_spend, guaranteed_best).is_some() {
            rt.tracer().emit_with(|| TraceEvent::Switch {
                from: "fast-first".into(),
                to: "background-only".into(),
                reason: format!(
                    "foreground spend {fgr_spend:.1} exceeded {:.0}% of guaranteed best {guaranteed_best:.1}",
                    rules.spend_limit * 100.0,
                ),
            });
        } else {
            continue;
        }
        bgr.retire_foreground();
        fgr_alive = false;
    }

    let strategy = if fgr_alive {
        "fast-first (foreground + background)"
    } else {
        "fast-first (degraded to background-only)"
    };
    if let Some(outcome) = finished {
        retrieve_by_outcome(request, outcome, &fgr_buffer, sink, rt)?;
    }
    Ok(strategy)
}

/// **Sorted tactic** (Section 7): foreground Fscan on the order-needed
/// index delivers in order; background Jscan over the other indexes
/// produces a filter that, once complete, rejects Fscan RIDs before
/// fetching.
pub(crate) fn sorted<B: Background>(
    mut fscan: Fscan<'_>,
    bgr: &mut B,
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
) -> Result<&'static str, StorageError> {
    while let Some(turn) = bgr.turn() {
        if turn == Turn::Foreground {
            let step = fscan.step();
            rt.phase("fscan");
            match step? {
                StrategyStep::Deliver(rid, record) => {
                    if !sink.deliver(rid, record) {
                        return Ok("sorted (Fscan satisfied)");
                    }
                }
                StrategyStep::Progress => {}
                // The ordered Fscan completed: the background is abandoned.
                StrategyStep::Done => break,
            }
            continue;
        }
        let Some(outcome) = bgr.step(rt) else {
            continue;
        };
        match outcome {
            JscanOutcome::Empty => {
                rt.tracer().emit_with(|| TraceEvent::Switch {
                    from: "fscan".into(),
                    to: "jscan".into(),
                    reason: "background proved the result empty".into(),
                });
                return Ok("sorted (background empty shortcut)");
            }
            JscanOutcome::FinalList(list) => {
                rt.tracer().emit_with(|| TraceEvent::Note {
                    message: format!(
                        "background filter of {} RIDs installed into Fscan",
                        list.len()
                    ),
                });
                fscan.set_filter(list.filter());
            }
            // The background was unselective: Fscan continues unfiltered.
            JscanOutcome::UseTscan => {}
        }
    }

    Ok(if fscan.has_filter() {
        "sorted (Fscan + Jscan filter)"
    } else {
        "sorted (Fscan alone)"
    })
}

/// **Index-only tactic** (Section 7): the best Sscan runs in the
/// foreground, collecting delivered RIDs; Jscan competes in the
/// background. Foreground buffer overflow kills Jscan ("Sscan continues
/// because it is a safer strategy"); a small complete Jscan list kills
/// Sscan in favour of the sure final-stage retrieval.
pub(crate) fn index_only<B: Background>(
    request: &RetrievalRequest<'_>,
    mut sscan: Sscan<'_>,
    bgr: &mut B,
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
) -> Result<&'static str, StorageError> {
    let mut fgr_buffer: Vec<Rid> = Vec::new();

    while let Some(turn) = bgr.turn() {
        if turn == Turn::Foreground {
            // One quantum of the foreground; `Some(strategy)` if it ended
            // the run.
            let mut quantum = || -> Result<Option<&'static str>, StorageError> {
                for _ in 0..FGR_BATCH {
                    match sscan.step()? {
                        StrategyStep::Deliver(rid, record) => {
                            fgr_buffer.push(rid);
                            if !sink.deliver_from_index(rid, record) {
                                return Ok(Some("index-only (Sscan satisfied)"));
                            }
                            if fgr_buffer.len() >= FGR_BUFFER_CAPACITY && bgr.stop() {
                                rt.tracer().emit_with(|| TraceEvent::Switch {
                                    from: "jscan".into(),
                                    to: "sscan".into(),
                                    reason:
                                        "foreground buffer overflow: Jscan terminated, Sscan is safer"
                                            .into(),
                                });
                            }
                        }
                        StrategyStep::Progress => {}
                        // Sscan completed: the background is abandoned.
                        StrategyStep::Done => return Ok(Some("index-only (Sscan won)")),
                    }
                }
                Ok(None)
            };
            let ended = quantum();
            rt.phase("sscan");
            if let Some(strategy) = ended? {
                return Ok(strategy);
            }
            continue;
        }
        let Some(outcome) = bgr.step(rt) else {
            continue;
        };
        match outcome {
            JscanOutcome::Empty => {
                rt.tracer().emit_with(|| TraceEvent::Switch {
                    from: "sscan".into(),
                    to: "jscan".into(),
                    reason: "background proved the result empty".into(),
                });
                return Ok("index-only (background empty shortcut)");
            }
            JscanOutcome::FinalList(list) => {
                // Jscan finished with a sure list: abandon Sscan.
                rt.tracer().emit_with(|| TraceEvent::Switch {
                    from: "sscan".into(),
                    to: "jscan".into(),
                    reason: format!("Jscan finished a sure list of {} RIDs first", list.len()),
                });
                final_stage(
                    request.table,
                    &list,
                    &request.residual,
                    &fgr_buffer,
                    sink,
                    rt,
                    &request.cost,
                )?;
                return Ok("index-only (Jscan won)");
            }
            JscanOutcome::UseTscan => {
                rt.tracer().emit_with(|| TraceEvent::Switch {
                    from: "jscan".into(),
                    to: "sscan".into(),
                    reason: "background gave up (would recommend Tscan): Sscan continues".into(),
                });
            }
        }
    }
    Ok("index-only (Sscan completed)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rdb_btree::{BTree, KeyRange};
    use rdb_storage::{
        shared_meter, shared_pool, Column, CostConfig, CostSnapshot, FileId, Schema, Value,
        ValueType,
    };

    use crate::jscan::{JscanConfig, JscanIndex};
    use crate::request::{KeyPred, OptimizeGoal};
    use crate::trace::Tracer;

    /// The inline driver, reading the session meter's counters around
    /// every quantum it hands out.
    struct Metered<'a> {
        inner: Inline<'a>,
        cost: SharedCost,
        open: Option<(Turn, CostSnapshot)>,
        /// The most (index entries, heap records) one quantum took.
        fgr_max: (u64, u64),
        bgr_max: (u64, u64),
    }

    impl<'a> Metered<'a> {
        fn new(jscan: Jscan<'a>, cost: &SharedCost) -> Self {
            Metered {
                inner: Inline::new(Some(jscan)),
                cost: cost.clone(),
                open: None,
                fgr_max: (0, 0),
                bgr_max: (0, 0),
            }
        }
    }

    impl Background for Metered<'_> {
        fn turn(&mut self) -> Option<Turn> {
            let now = self.cost.snapshot();
            if let Some((turn, before)) = self.open.take() {
                let took = now.since(&before);
                let max = match turn {
                    Turn::Foreground => &mut self.fgr_max,
                    Turn::Background => &mut self.bgr_max,
                };
                max.0 = max.0.max(took.index_entries);
                max.1 = max.1.max(took.records_examined);
            }
            let turn = self.inner.turn()?;
            self.open = Some((turn, now));
            Some(turn)
        }
        fn step(&mut self, rt: &mut RunTrace<'_>) -> Option<JscanOutcome> {
            self.inner.step(rt)
        }
        fn borrow(&mut self) -> Option<Rid> {
            self.inner.borrow()
        }
        fn borrow_open(&self) -> bool {
            self.inner.borrow_open()
        }
        fn guaranteed_best(&self) -> f64 {
            self.inner.guaranteed_best()
        }
        fn retire_foreground(&mut self) {
            self.inner.retire_foreground()
        }
        fn stop(&mut self) -> bool {
            self.inner.stop()
        }
    }

    /// table(a = i % 40, b = i % 25, c = i) with indexes on a and b.
    fn world(n: i64) -> (HeapTable, BTree, BTree, SharedCost) {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(100_000, cost.clone());
        let schema = Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
            Column::new("c", ValueType::Int),
        ]);
        let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 1024);
        let mut idx_a = BTree::new("idx_a", FileId(1), pool.clone(), vec![0], 64);
        let mut idx_b = BTree::new("idx_b", FileId(2), pool, vec![1], 64);
        for i in 0..n {
            let row = vec![Value::Int(i % 40), Value::Int(i % 25), Value::Int(i)];
            let rid = table.insert(Record::new(row)).unwrap();
            idx_a.insert(vec![Value::Int(i % 40)], rid);
            idx_b.insert(vec![Value::Int(i % 25)], rid);
        }
        (table, idx_a, idx_b, cost)
    }

    /// A Jscan over `tree = value` for each given index.
    fn jscan_over<'a>(
        table: &'a HeapTable,
        trees: &[(&'a BTree, i64)],
        config: JscanConfig,
        cost: &SharedCost,
    ) -> Jscan<'a> {
        let indexes = trees
            .iter()
            .map(|&(tree, v)| JscanIndex {
                tree,
                range: KeyRange::eq(v),
                estimate: tree.estimate_range(&KeyRange::eq(v), cost).estimate,
            })
            .collect();
        Jscan::new(table, indexes, config, KillRules::default(), cost.clone())
    }

    /// The quantum contract of the single-table competitors, by meter
    /// counter (the join lanes' is `no_lane_outruns_its_quantum`): however
    /// a tactic interleaves them, one background quantum is one
    /// `Jscan::step` of at most `batch` index entries plus one in-leaf
    /// positioning of the next scan (at most `max_fanout` entries, charged
    /// when the step finishes one index and opens the next), and one
    /// foreground quantum is one Fscan step or borrowed fetch (at most one
    /// heap record) or, index-only, at most [`FGR_BATCH`] Sscan entries.
    #[test]
    fn no_competitor_outruns_its_quantum() {
        let (table, idx_a, idx_b, cost) = world(8_000);
        let config = JscanConfig::default();
        let request = |residual: RecordPred| RetrievalRequest {
            arms: Vec::new(),
            residual,
            ..RetrievalRequest::table_only(&table, Arc::new(|_| true), OptimizeGoal::FastFirst)
        };
        // A step that finishes one index scan opens the next, and a scan
        // is charged for positioning inside its first leaf.
        let jscan_quantum = (config.batch + idx_a.max_fanout()) as u64;
        let tracer = Tracer::disabled();
        let both: RecordPred = Arc::new(|r| r[0] == Value::Int(3) && r[1] == Value::Int(7));
        let only_a: RecordPred = Arc::new(|r| r[0] == Value::Int(3));

        table.pool().clear();
        let mut jscan = jscan_over(&table, &[(&idx_a, 3), (&idx_b, 7)], config, &cost);
        jscan.open_borrow_stream();
        let mut bgr = Metered::new(jscan, &cost);
        let mut rt = RunTrace::start(&tracer, &cost);
        let rules = KillRules::default();
        let req = request(both);
        fast_first(&req, &rules, &mut bgr, &mut Sink::new(None), &mut rt).unwrap();
        assert_eq!(bgr.fgr_max, (0, 1), "one borrowed fetch");
        assert!((1..=jscan_quantum).contains(&bgr.bgr_max.0));

        table.pool().clear();
        let mut bgr = Metered::new(jscan_over(&table, &[(&idx_a, 3)], config, &cost), &cost);
        let all_b = KeyRange::all();
        let fscan = Fscan::new(&table, &idx_b, all_b, only_a.clone(), cost.clone());
        sorted(fscan, &mut bgr, &mut Sink::new(None), &mut rt).unwrap();
        assert_eq!(bgr.fgr_max, (1, 1), "one Fscan step: one entry, one fetch");
        assert!((1..=jscan_quantum).contains(&bgr.bgr_max.0));

        table.pool().clear();
        let mut bgr = Metered::new(jscan_over(&table, &[(&idx_b, 7)], config, &cost), &cost);
        let key_pred: KeyPred = Arc::new(|k| k[0] == Value::Int(3));
        let sscan = Sscan::new(&idx_a, KeyRange::eq(3), key_pred, cost.clone());
        let req = request(only_a.clone());
        index_only(&req, sscan, &mut bgr, &mut Sink::new(None), &mut rt).unwrap();
        assert_eq!(bgr.fgr_max, (FGR_BATCH as u64, 0), "one Sscan quantum");
        assert!((1..=jscan_quantum).contains(&bgr.bgr_max.0));

        // The fallback every tactic can end in: one record per step.
        let mut scan = Tscan::new(&table, only_a, cost.clone());
        let mut before = cost.snapshot();
        let ran_dry = drain(
            || {
                let step = scan.step();
                let now = cost.snapshot();
                assert!(now.since(&before).records_examined <= 1);
                before = now;
                step
            },
            |_, _| true,
        );
        assert!(ran_dry.unwrap());
    }
}

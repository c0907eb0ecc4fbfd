//! Execution tracing: typed events for every runtime decision the paper's
//! dynamic optimizer makes.
//!
//! The whole contribution of Antoshenkov's design is a sequence of
//! *decisions taken while the query runs* — candidate preordering,
//! two-stage estimate refinement, knee/switch points where projected cost
//! crosses the guaranteed best, Jscan discards, fault absorptions. This
//! module makes that sequence observable without taxing the hot paths:
//!
//! * [`TraceEvent`] — the typed event taxonomy.
//! * [`TraceSink`] — the consumer contract (one method, may drop events).
//! * [`Tracer`] — a cloneable handle that is either disabled (the default;
//!   every emission is a single pointer-is-null branch and the event is
//!   never even constructed) or carries an `Arc<dyn TraceSink>`.
//! * [`TraceBuffer`] — the bundled ring-buffer sink for tests and CLIs.
//! * [`RunTrace`] — per-run phase cost attribution: the cost meter delta
//!   of each execution phase, tiling the run so phase costs sum to the
//!   query's total cost.
//! * [`render_timeline`] / [`trace_json`] — human and machine renderings,
//!   consumed by `EXPLAIN ANALYZE` in `rdb-query`.
//!
//! # Overhead guarantee
//!
//! A disabled [`Tracer`] costs one branch per would-be event; event payload
//! construction happens inside a closure passed to [`Tracer::emit_with`],
//! so formatting, cloning and cost-meter reads are all skipped when no sink
//! is attached. CI enforces ≤2% wall-clock overhead of the disabled path
//! on the hot benches (`gate trace_overhead`,
//! `crates/bench/src/bin/gate/trace_overhead.rs`).

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use rdb_storage::SharedCost;

use crate::jscan::DiscardReason;

/// One typed observation from the executing engine.
///
/// Events appear in execution order. Costs are in the engine's simulated
/// cost units (1 unit = one physical page read).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The dynamic optimizer picked a tactic for this run (after host
    /// variables were bound).
    TacticChosen {
        /// The `TacticChoice` variant, e.g. `FastFirst`.
        tactic: String,
        /// B-tree nodes touched by initial-stage range estimation.
        estimation_nodes: u64,
    },
    /// One candidate index with its initial-stage cardinality estimate,
    /// in competition (ascending-selectivity) order.
    CandidateEstimate {
        /// Index name.
        index: String,
        /// Estimated matching entries from the descent-to-split-node probe.
        estimate: u64,
    },
    /// The Jscan competition started.
    CompetitionStart {
        /// Number of candidate index scans admitted.
        candidates: usize,
        /// Full-table-scan cost: the initial guaranteed-best retrieval.
        tscan_cost: f64,
    },
    /// An active scan refined its selectivity estimate (the paper's
    /// two-stage estimation: observed keep-rate blended with the prior).
    EstimateRefined {
        /// Index whose estimate moved.
        index: String,
        /// Entries examined so far.
        entries: u64,
        /// Entries kept (passed earlier filters) so far.
        kept: u64,
        /// Blended selectivity in `[0, 1]`.
        selectivity: f64,
        /// Projected total retrieval cost if this scan is allowed to finish.
        projected_cost: f64,
        /// Guaranteed-best retrieval cost it competes against.
        guaranteed_best: f64,
    },
    /// A scan lost the competition and was discarded.
    IndexDiscarded {
        /// Index that lost.
        index: String,
        /// Why (projected cost, scan spend, overflow, storage fault).
        reason: DiscardReason,
        /// Projected cost at the moment of discard.
        projected_cost: f64,
        /// Cost this scan had spent.
        spent: f64,
        /// Guaranteed best it was compared against.
        guaranteed_best: f64,
    },
    /// A storage fault was absorbed by dropping the faulty index scan
    /// (retrieval continues via the surviving strategies).
    FaultAbsorbed {
        /// Index whose backing file faulted.
        index: String,
    },
    /// An index scan finished and (possibly) tightened the guaranteed best.
    ScanCompleted {
        /// Index that completed.
        index: String,
        /// RIDs in the (intersected) result list.
        kept: usize,
        /// Guaranteed-best cost after tightening.
        guaranteed_best: f64,
    },
    /// An OLTP shortcut fired (empty range, tiny range, tiny list,
    /// empty intersection).
    Shortcut {
        /// Shortcut kind, e.g. `"empty-range"` or `"tiny-list"`.
        kind: String,
        /// Human detail.
        detail: String,
    },
    /// The executor switched strategies mid-run — the knee of the
    /// competition.
    Switch {
        /// Strategy being abandoned.
        from: String,
        /// Strategy taking over (lowercase; matches a phase name or a
        /// substring of the final winner string).
        to: String,
        /// Why the switch happened.
        reason: String,
    },
    /// Cost-meter delta attributed to one named execution phase.
    PhaseCost {
        /// Phase name, e.g. `"jscan"` or `"final-stage"`.
        phase: String,
        /// Cost units spent in this phase.
        cost: f64,
    },
    /// Buffer-pool activity caused by this run.
    PoolDelta {
        /// Buffer hits.
        hits: u64,
        /// Buffer misses (simulated physical reads).
        misses: u64,
    },
    /// The run finished; `strategy` names what actually produced the rows.
    Winner {
        /// Final strategy string (same value as `RetrievalResult::strategy`).
        strategy: String,
        /// Total cost of the run.
        cost: f64,
        /// Rows delivered.
        rows: usize,
    },
    /// One candidate join method with its planning-time cost estimate,
    /// in competition (ascending-cost) order.
    JoinCandidate {
        /// Method label, e.g. `"hash(build=left)"`.
        method: String,
        /// Estimated total cost if this method runs alone.
        estimate: f64,
    },
    /// The join competition started.
    JoinStart {
        /// Feasible join methods enumerated.
        candidates: usize,
        /// Methods admitted into the race: the guaranteed lane plus the
        /// speculative lanes the kill rules spared (the rest were pruned at
        /// planning time).
        admitted: usize,
        /// The guaranteed lane's estimate — the race's guaranteed best.
        guaranteed_best: f64,
    },
    /// An active join candidate refined its projected cost from observed
    /// progress (the two-stage estimation applied to joins).
    JoinRefined {
        /// Method whose projection moved.
        method: String,
        /// Fraction of the candidate's input consumed, in `[0, 1]`.
        progress: f64,
        /// Projected total cost if this candidate is allowed to finish.
        projected_cost: f64,
        /// Guaranteed best it competes against.
        guaranteed_best: f64,
    },
    /// A join candidate lost the competition and was killed.
    JoinKilled {
        /// Method that lost.
        method: String,
        /// Why (projected cost, scan spend, storage fault).
        reason: DiscardReason,
        /// Cost this candidate had spent when killed.
        spent: f64,
        /// Guaranteed best it was compared against.
        guaranteed_best: f64,
    },
    /// A prepared-statement plan-cache decision (hit, miss, invalidation).
    PlanCache {
        /// What happened: `"hit"`, `"miss"` or `"invalidated"`.
        outcome: String,
        /// The cached statement text (the cache key).
        statement: String,
        /// Human detail, e.g. why a cached skeleton was rebuilt.
        detail: String,
    },
    /// Free-form annotation for events with no structured form yet.
    Note {
        /// The annotation.
        message: String,
    },
}

impl TraceEvent {
    /// Short machine tag for this event kind (stable; used as the JSON
    /// `"event"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TacticChosen { .. } => "tactic_chosen",
            TraceEvent::CandidateEstimate { .. } => "candidate_estimate",
            TraceEvent::CompetitionStart { .. } => "competition_start",
            TraceEvent::EstimateRefined { .. } => "estimate_refined",
            TraceEvent::IndexDiscarded { .. } => "index_discarded",
            TraceEvent::FaultAbsorbed { .. } => "fault_absorbed",
            TraceEvent::ScanCompleted { .. } => "scan_completed",
            TraceEvent::Shortcut { .. } => "shortcut",
            TraceEvent::Switch { .. } => "switch",
            TraceEvent::PhaseCost { .. } => "phase_cost",
            TraceEvent::PoolDelta { .. } => "pool_delta",
            TraceEvent::Winner { .. } => "winner",
            TraceEvent::JoinCandidate { .. } => "join_candidate",
            TraceEvent::JoinStart { .. } => "join_start",
            TraceEvent::JoinRefined { .. } => "join_refined",
            TraceEvent::JoinKilled { .. } => "join_killed",
            TraceEvent::PlanCache { .. } => "plan_cache",
            TraceEvent::Note { .. } => "note",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TacticChosen {
                tactic,
                estimation_nodes,
            } => write!(
                f,
                "tactic {tactic} chosen ({estimation_nodes} estimation nodes)"
            ),
            TraceEvent::CandidateEstimate { index, estimate } => {
                write!(f, "candidate {index}: ~{estimate} entries")
            }
            TraceEvent::CompetitionStart {
                candidates,
                tscan_cost,
            } => write!(
                f,
                "competition start: {candidates} candidate(s) vs Tscan at {tscan_cost:.1}"
            ),
            TraceEvent::EstimateRefined {
                index,
                entries,
                kept,
                selectivity,
                projected_cost,
                guaranteed_best,
            } => write!(
                f,
                "{index} refined: {kept}/{entries} kept, selectivity {selectivity:.3}, \
                 projected {projected_cost:.1} vs best {guaranteed_best:.1}"
            ),
            TraceEvent::IndexDiscarded {
                index,
                reason,
                projected_cost,
                spent,
                guaranteed_best,
            } => write!(
                f,
                "{index} discarded ({reason:?}): projected {projected_cost:.1}, \
                 spent {spent:.1}, best {guaranteed_best:.1}"
            ),
            TraceEvent::FaultAbsorbed { index } => {
                write!(f, "storage fault absorbed: {index} dropped, run continues")
            }
            TraceEvent::ScanCompleted {
                index,
                kept,
                guaranteed_best,
            } => write!(
                f,
                "{index} completed: {kept} RID(s), guaranteed best now {guaranteed_best:.1}"
            ),
            TraceEvent::Shortcut { kind, detail } => write!(f, "shortcut [{kind}]: {detail}"),
            TraceEvent::Switch { from, to, reason } => {
                write!(f, "switch {from} -> {to}: {reason}")
            }
            TraceEvent::PhaseCost { phase, cost } => {
                write!(f, "phase {phase}: {cost:.1} cost units")
            }
            TraceEvent::PoolDelta { hits, misses } => {
                write!(f, "buffer pool: {hits} hit(s), {misses} miss(es)")
            }
            TraceEvent::Winner {
                strategy,
                cost,
                rows,
            } => write!(f, "winner: {strategy} ({rows} row(s), cost {cost:.1})"),
            TraceEvent::JoinCandidate { method, estimate } => {
                write!(f, "join candidate {method}: estimated {estimate:.1}")
            }
            TraceEvent::JoinStart {
                candidates,
                admitted,
                guaranteed_best,
            } => write!(
                f,
                "join competition start: {admitted}/{candidates} method(s) admitted, \
                 best estimate {guaranteed_best:.1}"
            ),
            TraceEvent::JoinRefined {
                method,
                progress,
                projected_cost,
                guaranteed_best,
            } => write!(
                f,
                "{method} refined: {:.0}% done, projected {projected_cost:.1} vs best \
                 {guaranteed_best:.1}",
                progress * 100.0
            ),
            TraceEvent::JoinKilled {
                method,
                reason,
                spent,
                guaranteed_best,
            } => write!(
                f,
                "{method} killed ({reason:?}): spent {spent:.1}, best {guaranteed_best:.1}"
            ),
            TraceEvent::PlanCache {
                outcome,
                statement,
                detail,
            } => {
                write!(f, "plan cache {outcome} [{statement}]")?;
                if !detail.is_empty() {
                    write!(f, ": {detail}")?;
                }
                Ok(())
            }
            TraceEvent::Note { message } => write!(f, "{message}"),
        }
    }
}

/// Consumer of trace events.
///
/// Contract: `emit` must not re-enter the engine and may drop events
/// (e.g. a full ring buffer); the engine never depends on a sink retaining
/// anything. Sinks are `Send + Sync`: sessions share a database across
/// threads, so one sink may receive the events of concurrent queries.
pub trait TraceSink: Send + Sync {
    /// Receives one event, in execution order.
    fn emit(&self, event: TraceEvent);
}

/// Cloneable tracing handle threaded through the engine.
///
/// The default handle is disabled: [`Tracer::emit_with`] reduces to one
/// `Option` discriminant check and the closure building the event is never
/// called. Attach a sink with [`Tracer::new`] to start observing.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl Tracer {
    /// A tracer delivering events to `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// The disabled tracer (no sink, near-zero overhead).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// True when a sink is attached. Use to gate expensive *derived*
    /// observations (the per-event payload is already lazy via
    /// [`Tracer::emit_with`]).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `f` — `f` runs only when a sink is
    /// attached, so payload construction is free on the disabled path.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(f());
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tracer")
            .field(&if self.sink.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

/// Bounded ring-buffer sink: keeps the most recent `capacity` events and
/// counts the ones it had to drop.
#[derive(Debug)]
pub struct TraceBuffer {
    inner: Mutex<TraceBufferInner>,
}

#[derive(Debug)]
struct TraceBufferInner {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer retaining at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            inner: Mutex::new(TraceBufferInner {
                events: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// A shared buffer ready to hand to [`Tracer::new`].
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(TraceBuffer::new(capacity))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceBufferInner> {
        // A panic while holding the lock leaves valid (if truncated) event
        // state; keep collecting.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Drains and returns the retained events, oldest first.
    pub fn take(&self) -> Vec<TraceEvent> {
        self.lock().events.drain(..).collect()
    }

    /// Number of events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

impl TraceSink for TraceBuffer {
    fn emit(&self, event: TraceEvent) {
        let mut inner = self.lock();
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }
}

/// Per-run phase accounting: attributes cost-meter deltas to named phases.
///
/// The executor calls [`RunTrace::phase`] at the end of each execution
/// stretch; the delta since the previous mark is credited to that phase
/// (deltas with the same name merge). Because every stretch of the run is
/// closed by exactly one `phase` call, the emitted [`TraceEvent::PhaseCost`]
/// events tile the run: their sum equals the run's total cost to float
/// precision — an invariant `rdb-simtest` asserts.
///
/// All bookkeeping is skipped when the tracer is disabled.
pub struct RunTrace<'a> {
    tracer: &'a Tracer,
    cost: Option<SharedCost>,
    /// Meter total at the last phase mark. Phase accounting only needs the
    /// scalar total — tracking it (instead of a full [`CostSnapshot`])
    /// keeps the per-stretch cost to one weighted read, cheap enough for
    /// the per-row call sites inside the competition tactics.
    mark: f64,
    /// `(phase, cost)` in first-encounter order.
    phases: Vec<(String, f64)>,
}

impl<'a> RunTrace<'a> {
    /// Starts phase accounting at the meter's current reading. When the
    /// tracer is disabled, no meter reads are ever taken.
    pub fn start(tracer: &'a Tracer, cost: &SharedCost) -> Self {
        let (cost, mark) = if tracer.enabled() {
            (Some(Arc::clone(cost)), cost.total())
        } else {
            (None, 0.0)
        };
        RunTrace {
            tracer,
            cost,
            mark,
            phases: Vec::new(),
        }
    }

    /// The tracer this run reports to.
    pub fn tracer(&self) -> &Tracer {
        self.tracer
    }

    /// Closes the current stretch, crediting its cost delta to `phase`.
    pub fn phase(&mut self, phase: &str) {
        let Some(cost) = &self.cost else { return };
        let now = cost.total();
        self.phase_at(phase, now);
    }

    /// [`RunTrace::phase`] for a caller that has just read the meter
    /// itself: `now` is the run meter's current total.
    pub fn phase_at(&mut self, phase: &str, now: f64) {
        if self.cost.is_none() {
            return;
        }
        let delta = now - self.mark;
        self.mark = now;
        if delta == 0.0 {
            return;
        }
        if let Some(slot) = self.phases.iter_mut().find(|(name, _)| name == phase) {
            slot.1 += delta;
        } else {
            self.phases.push((phase.to_string(), delta));
        }
    }

    /// Emits one [`TraceEvent::PhaseCost`] per phase (first-encounter
    /// order), closing any still-open stretch into `"other"`.
    pub fn finish(mut self) {
        self.phase("other");
        for (phase, cost) in self.phases.drain(..) {
            self.tracer.emit_with(|| TraceEvent::PhaseCost { phase, cost });
        }
    }
}

impl fmt::Debug for RunTrace<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunTrace")
            .field("phases", &self.phases)
            .finish_non_exhaustive()
    }
}

/// Renders events as an indented competition timeline (the body of
/// `EXPLAIN ANALYZE`). Costs print with one decimal so golden files stay
/// stable across refactors that preserve semantics.
pub fn render_timeline(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        let indent = match event {
            TraceEvent::TacticChosen { .. }
            | TraceEvent::Winner { .. }
            | TraceEvent::PoolDelta { .. }
            | TraceEvent::PlanCache { .. } => "",
            TraceEvent::PhaseCost { .. } => "    ",
            TraceEvent::EstimateRefined { .. }
            | TraceEvent::IndexDiscarded { .. }
            | TraceEvent::FaultAbsorbed { .. }
            | TraceEvent::ScanCompleted { .. }
            | TraceEvent::JoinRefined { .. }
            | TraceEvent::JoinKilled { .. } => "    ",
            _ => "  ",
        };
        out.push_str(indent);
        out.push_str(&event.to_string());
        out.push('\n');
    }
    out
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_field(out: &mut String, first: &mut bool, key: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    push_json_str(out, key);
    out.push(':');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:.6}"));
    } else {
        out.push_str("null");
    }
}

/// Quotes and escapes `s` as a JSON string literal — for callers
/// hand-rolling JSON around [`event_json`] / [`trace_json`].
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    push_json_str(&mut out, s);
    out
}

/// Serializes one event as a JSON object with an `"event"` kind tag.
pub fn event_json(event: &TraceEvent) -> String {
    let mut out = String::from("{");
    let mut first = true;
    push_field(&mut out, &mut first, "event");
    push_json_str(&mut out, event.kind());
    macro_rules! str_field {
        ($key:expr, $val:expr) => {{
            push_field(&mut out, &mut first, $key);
            push_json_str(&mut out, $val);
        }};
    }
    macro_rules! num_field {
        ($key:expr, $val:expr) => {{
            push_field(&mut out, &mut first, $key);
            out.push_str(&$val.to_string());
        }};
    }
    macro_rules! f64_field {
        ($key:expr, $val:expr) => {{
            push_field(&mut out, &mut first, $key);
            push_f64(&mut out, $val);
        }};
    }
    match event {
        TraceEvent::TacticChosen {
            tactic,
            estimation_nodes,
        } => {
            str_field!("tactic", tactic);
            num_field!("estimation_nodes", estimation_nodes);
        }
        TraceEvent::CandidateEstimate { index, estimate } => {
            str_field!("index", index);
            num_field!("estimate", estimate);
        }
        TraceEvent::CompetitionStart {
            candidates,
            tscan_cost,
        } => {
            num_field!("candidates", candidates);
            f64_field!("tscan_cost", *tscan_cost);
        }
        TraceEvent::EstimateRefined {
            index,
            entries,
            kept,
            selectivity,
            projected_cost,
            guaranteed_best,
        } => {
            str_field!("index", index);
            num_field!("entries", entries);
            num_field!("kept", kept);
            f64_field!("selectivity", *selectivity);
            f64_field!("projected_cost", *projected_cost);
            f64_field!("guaranteed_best", *guaranteed_best);
        }
        TraceEvent::IndexDiscarded {
            index,
            reason,
            projected_cost,
            spent,
            guaranteed_best,
        } => {
            str_field!("index", index);
            str_field!("reason", &format!("{reason:?}"));
            f64_field!("projected_cost", *projected_cost);
            f64_field!("spent", *spent);
            f64_field!("guaranteed_best", *guaranteed_best);
        }
        TraceEvent::FaultAbsorbed { index } => {
            str_field!("index", index);
        }
        TraceEvent::ScanCompleted {
            index,
            kept,
            guaranteed_best,
        } => {
            str_field!("index", index);
            num_field!("kept", kept);
            f64_field!("guaranteed_best", *guaranteed_best);
        }
        TraceEvent::Shortcut { kind, detail } => {
            str_field!("kind", kind);
            str_field!("detail", detail);
        }
        TraceEvent::Switch { from, to, reason } => {
            str_field!("from", from);
            str_field!("to", to);
            str_field!("reason", reason);
        }
        TraceEvent::PhaseCost { phase, cost } => {
            str_field!("phase", phase);
            f64_field!("cost", *cost);
        }
        TraceEvent::PoolDelta { hits, misses } => {
            num_field!("hits", hits);
            num_field!("misses", misses);
        }
        TraceEvent::Winner {
            strategy,
            cost,
            rows,
        } => {
            str_field!("strategy", strategy);
            f64_field!("cost", *cost);
            num_field!("rows", rows);
        }
        TraceEvent::JoinCandidate { method, estimate } => {
            str_field!("method", method);
            f64_field!("estimate", *estimate);
        }
        TraceEvent::JoinStart {
            candidates,
            admitted,
            guaranteed_best,
        } => {
            num_field!("candidates", candidates);
            num_field!("admitted", admitted);
            f64_field!("guaranteed_best", *guaranteed_best);
        }
        TraceEvent::JoinRefined {
            method,
            progress,
            projected_cost,
            guaranteed_best,
        } => {
            str_field!("method", method);
            f64_field!("progress", *progress);
            f64_field!("projected_cost", *projected_cost);
            f64_field!("guaranteed_best", *guaranteed_best);
        }
        TraceEvent::JoinKilled {
            method,
            reason,
            spent,
            guaranteed_best,
        } => {
            str_field!("method", method);
            str_field!("reason", &format!("{reason:?}"));
            f64_field!("spent", *spent);
            f64_field!("guaranteed_best", *guaranteed_best);
        }
        TraceEvent::PlanCache {
            outcome,
            statement,
            detail,
        } => {
            str_field!("outcome", outcome);
            str_field!("statement", statement);
            str_field!("detail", detail);
        }
        TraceEvent::Note { message } => {
            str_field!("message", message);
        }
    }
    out.push('}');
    out
}

/// Serializes a whole trace as a JSON array of event objects.
pub fn trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event_json(event));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_storage::{shared_meter, CostConfig};

    #[test]
    fn disabled_tracer_never_builds_events() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.emit_with(|| panic!("payload closure must not run when disabled"));
    }

    #[test]
    fn buffer_collects_in_order_and_rings() {
        let buf = TraceBuffer::shared(2);
        let tracer = Tracer::new(buf.clone());
        for i in 0..3 {
            tracer.emit_with(|| TraceEvent::Note {
                message: format!("n{i}"),
            });
        }
        let events = buf.events();
        assert_eq!(events.len(), 2);
        assert_eq!(buf.dropped(), 1);
        assert_eq!(
            events[0],
            TraceEvent::Note {
                message: "n1".into()
            }
        );
    }

    #[test]
    fn phase_costs_tile_the_run() {
        let meter = shared_meter(CostConfig::default());
        let buf = TraceBuffer::shared(64);
        let tracer = Tracer::new(buf.clone());
        let before = meter.snapshot();
        let mut rt = RunTrace::start(&tracer, &meter);
        meter.charge_page_reads(3);
        rt.phase("jscan");
        meter.charge_cache_hits(10);
        rt.phase("final-stage");
        meter.charge_page_read();
        rt.phase("jscan"); // merges with the earlier jscan stretch
        rt.finish();
        let total = meter.snapshot().since(&before).total;
        let sum: f64 = buf
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseCost { cost, .. } => Some(*cost),
                _ => None,
            })
            .sum();
        assert!((sum - total).abs() < 1e-9, "phases {sum} vs total {total}");
        let jscan: Vec<_> = buf
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::PhaseCost { phase, .. } if phase == "jscan"))
            .cloned()
            .collect();
        assert_eq!(jscan.len(), 1, "same-name phases must merge");
    }

    #[test]
    fn run_trace_is_inert_when_disabled() {
        let meter = shared_meter(CostConfig::default());
        let tracer = Tracer::disabled();
        let mut rt = RunTrace::start(&tracer, &meter);
        meter.charge_page_read();
        rt.phase("jscan");
        rt.finish(); // must not panic or emit
    }

    #[test]
    fn json_escapes_and_tags() {
        let event = TraceEvent::Note {
            message: "a \"quoted\"\nline".into(),
        };
        let json = event_json(&event);
        assert_eq!(
            json,
            r#"{"event":"note","message":"a \"quoted\"\nline"}"#
        );
        let arr = trace_json(&[event.clone(), event]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("\"note\"").count(), 2);
    }

    #[test]
    fn timeline_renders_every_event() {
        let events = vec![
            TraceEvent::TacticChosen {
                tactic: "FastFirst".into(),
                estimation_nodes: 4,
            },
            TraceEvent::Switch {
                from: "fast-first".into(),
                to: "background-only".into(),
                reason: "spend limit".into(),
            },
            TraceEvent::Winner {
                strategy: "fast-first (degraded to background-only)".into(),
                cost: 12.25,
                rows: 3,
            },
        ];
        let text = render_timeline(&events);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("switch fast-first -> background-only"));
        assert!(text.contains("cost 12.2")); // {:.1} rounding applied
    }
}

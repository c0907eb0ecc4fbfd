//! The dynamic optimizer: per-run tactic selection and execution
//! (paper Sections 4, 5, 7).
//!
//! "For a given optimization goal, a single scan strategy or a combination
//! of strategies is determined either statically or dynamically at start
//! retrieval time. Static optimization covers such clear cases as
//! selection of Tscan with absence of indexes or selection of Sscan if
//! only one useful index is available and this index is self-sufficient.
//! When the choice of scan is not clear, the dynamic optimizer tries to
//! resolve it by doing inexpensive estimates of scan costs based on
//! parameter values and the current state of data distribution."
//!
//! Because selection happens *after host-variable binding*, the same query
//! naturally gets different strategies on different runs — the paper's
//! `AGE >= :A1` example resolves to Tscan for `:A1 = 0` and to an index
//! strategy for `:A1 = 200`, per run.

use rdb_competition::KillRules;
use rdb_storage::StorageError;

use crate::fscan::Fscan;
use crate::initial::{InitialPlan, InitialStage, ShortcutKind};
use crate::jscan::{Jscan, JscanConfig, JscanIndex};
use crate::request::{OptimizeGoal, RetrievalRequest, RetrievalResult, Sink};
use crate::sscan::Sscan;
use crate::tactics::{self, Foreground, Inline};
use crate::trace::{RunTrace, TraceEvent, Tracer};
use crate::tscan::Tscan;

/// Configuration of the dynamic optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicConfig {
    /// The two kill thresholds every competition is judged by: the joint
    /// scan, the union scan, the fast-first foreground and (through
    /// `rdb-query`) the join race.
    pub rules: KillRules,
    /// Joint-scan tuning.
    pub jscan: JscanConfig,
    /// Initial-stage tuning.
    pub initial: InitialStage,
}

/// Which tactic the optimizer chose for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TacticChoice {
    /// No indexes: classical sequential retrieval.
    TscanOnly,
    /// An index range is provably empty: deliver end-of-data at once.
    EndOfData,
    /// A tiny range resolves the whole retrieval: direct indexed fetch.
    TinyRangeFetch,
    /// Single useful self-sufficient index: static Sscan.
    SscanStatic,
    /// Total-time, fetch-needed only: Jscan + final stage.
    BackgroundOnly,
    /// Fast-first, fetch-needed only: borrowing foreground vs Jscan.
    FastFirst,
    /// Order requested and an order-needed index exists: Fscan + filter-
    /// producing Jscan.
    Sorted,
    /// Self-sufficient index present: Sscan vs Jscan.
    IndexOnly,
    /// OR-connected restriction: the union of its arms' RID lists.
    UnionScan,
}

impl TacticChoice {
    /// The variant's name: what [`RetrievalResult::strategy`], `EXPLAIN`
    /// and the `TacticChosen` trace event call this tactic.
    pub fn name(self) -> &'static str {
        match self {
            TacticChoice::TscanOnly => "TscanOnly",
            TacticChoice::EndOfData => "EndOfData",
            TacticChoice::TinyRangeFetch => "TinyRangeFetch",
            TacticChoice::SscanStatic => "SscanStatic",
            TacticChoice::BackgroundOnly => "BackgroundOnly",
            TacticChoice::FastFirst => "FastFirst",
            TacticChoice::Sorted => "Sorted",
            TacticChoice::IndexOnly => "IndexOnly",
            TacticChoice::UnionScan => "UnionScan",
        }
    }
}

/// The single-table dynamic optimizer.
#[derive(Debug, Default)]
pub struct DynamicOptimizer {
    config: DynamicConfig,
}

impl DynamicOptimizer {
    /// Creates an optimizer with the given tuning.
    pub fn new(config: DynamicConfig) -> Self {
        DynamicOptimizer { config }
    }

    /// Selects the tactic for a bound request. Runs the initial stage
    /// (cheap estimation); the returned plan is reused by [`Self::run`].
    /// A request with OR arms runs the union scan, or ends at once when
    /// every arm is empty.
    pub fn choose(&self, request: &RetrievalRequest<'_>) -> (TacticChoice, InitialPlan) {
        if !request.arms.is_empty() {
            let plan = self.config.initial.run_union(request);
            let choice = if plan.jscan_estimates.iter().all(|&e| e == 0.0) {
                TacticChoice::EndOfData
            } else {
                TacticChoice::UnionScan
            };
            return (choice, plan);
        }
        if request.indexes.is_empty() {
            return (TacticChoice::TscanOnly, InitialPlan::default());
        }
        let plan = self.config.initial.run(request);
        let choice = match &plan.shortcut {
            Some(ShortcutKind::EmptyResult { .. }) => TacticChoice::EndOfData,
            Some(ShortcutKind::TinyRange { .. }) => TacticChoice::TinyRangeFetch,
            None => {
                let has_order = request.order_required && plan.best_order_index.is_some();
                if has_order {
                    TacticChoice::Sorted
                } else if let Some((_pos, _)) = plan.best_self_sufficient {
                    if request.indexes.len() == 1 {
                        TacticChoice::SscanStatic
                    } else {
                        TacticChoice::IndexOnly
                    }
                } else {
                    match request.goal {
                        OptimizeGoal::TotalTime => TacticChoice::BackgroundOnly,
                        OptimizeGoal::FastFirst => TacticChoice::FastFirst,
                    }
                }
            }
        };
        (choice, plan)
    }

    /// The plan's ordered fetch-needed indexes as Jscan inputs, leaving
    /// out `claimed` (the index the foreground strategy scans itself).
    fn jscan_indexes<'a>(
        request: &RetrievalRequest<'a>,
        plan: &InitialPlan,
        claimed: Option<usize>,
    ) -> Vec<JscanIndex<'a>> {
        plan.jscan_order
            .iter()
            .zip(&plan.jscan_estimates)
            .filter(|(pos, _)| Some(**pos) != claimed)
            .map(|(&pos, &estimate)| JscanIndex {
                tree: request.indexes[pos].tree,
                range: request.indexes[pos].range.clone(),
                estimate,
            })
            .collect()
    }

    /// A Jscan over `indexes` (at least one) charging the request's meter
    /// and announcing its competition to `tracer`.
    fn jscan<'a>(
        &self,
        request: &RetrievalRequest<'a>,
        indexes: Vec<JscanIndex<'a>>,
        tracer: &Tracer,
    ) -> Jscan<'a> {
        let mut jscan = Jscan::new(
            request.table,
            indexes,
            self.config.jscan,
            self.config.rules,
            request.cost.clone(),
        );
        jscan.set_tracer(tracer.clone());
        jscan
    }

    /// Runs a competitive tactic: `foreground` against a background Jscan
    /// over `indexes`, interleaved by the cooperative driver. With no index
    /// left for the background the foreground competes with nobody. Only a
    /// borrowing foreground reads the Jscan's borrow stream, so only then
    /// is the stream recorded.
    fn compete<'a>(
        &self,
        request: &RetrievalRequest<'a>,
        foreground: Foreground<'_>,
        indexes: Vec<JscanIndex<'a>>,
        tracer: &Tracer,
        sink: &mut Sink,
        rt: &mut RunTrace<'_>,
    ) -> Result<&'static str, StorageError> {
        let borrowing = matches!(foreground, Foreground::Borrowing);
        let jscan = (!indexes.is_empty()).then(|| {
            let mut jscan = self.jscan(request, indexes, tracer);
            if borrowing {
                jscan.open_borrow_stream();
            }
            jscan
        });
        let mut bgr = Inline::new(jscan);
        tactics::compete(foreground, &mut bgr, request, &self.config.rules, sink, rt)
    }

    /// Chooses a tactic and executes the retrieval. `Err` means the data
    /// storage failed mid-run (e.g. an injected fault on the heap file);
    /// an index-file fault alone degrades gracefully inside the tactics
    /// and does not surface here.
    pub fn run(&self, request: &RetrievalRequest<'_>) -> Result<RetrievalResult, StorageError> {
        self.run_with_observer(request, None)
    }

    /// [`DynamicOptimizer::run`] with a streaming observer: every delivery
    /// is pushed to the callback the moment a strategy produces it —
    /// giving fast-first consumers their rows before the run completes,
    /// and experiments a handle on time-to-first-row.
    pub fn run_with_observer(
        &self,
        request: &RetrievalRequest<'_>,
        observer: Option<crate::request::DeliveryObserver<'_>>,
    ) -> Result<RetrievalResult, StorageError> {
        self.run_traced(request, observer, &Tracer::disabled())
    }

    /// [`DynamicOptimizer::run_with_observer`] with a [`Tracer`]: every
    /// runtime decision (candidate estimates, refinements, discards,
    /// switches, the winner, phase costs, pool deltas) is emitted as a
    /// typed [`TraceEvent`]. Passing [`Tracer::disabled`] makes this
    /// identical to the untraced path (one branch per would-be event).
    pub fn run_traced(
        &self,
        request: &RetrievalRequest<'_>,
        observer: Option<crate::request::DeliveryObserver<'_>>,
        tracer: &Tracer,
    ) -> Result<RetrievalResult, StorageError> {
        let cost = request.cost.clone();
        let pool_before = if tracer.enabled() {
            request.table.pool().stats()
        } else {
            Default::default()
        };
        let cost_before = cost.total();
        let mut rt = RunTrace::start(tracer, &cost);
        let (choice, plan) = self.choose(request);
        tracer.emit_with(|| TraceEvent::TacticChosen {
            tactic: choice.name().to_string(),
            estimation_nodes: plan.estimation_nodes as u64,
        });
        rt.phase("estimation");
        let mut sink = match observer {
            Some(obs) => Sink::with_observer(request.limit, obs),
            None => Sink::new(request.limit),
        };
        let mut sscan_index = None;

        // The competitive tactics name the detailed strategy that produced
        // the rows (e.g. "fast-first (degraded to background-only)");
        // shortcuts and static picks have nothing to add to their name.
        let detail: Option<&'static str> = match choice {
            TacticChoice::EndOfData => {
                tracer.emit_with(|| TraceEvent::Shortcut {
                    kind: "empty-range".into(),
                    detail: "empty range detected during estimation: end of data".into(),
                });
                None
            }
            TacticChoice::TscanOnly => {
                let mut scan = Tscan::new(request.table, request.residual.clone(), cost.clone());
                let outcome = tactics::drain(|| scan.step(), |rid, rec| sink.deliver(rid, rec));
                rt.phase("tscan");
                outcome?;
                None
            }
            TacticChoice::TinyRangeFetch => {
                let Some(ShortcutKind::TinyRange { index_pos, count }) = &plan.shortcut else {
                    unreachable!("tiny fetch without tiny shortcut")
                };
                tracer.emit_with(|| TraceEvent::Shortcut {
                    kind: "tiny-range".into(),
                    detail: format!(
                        "tiny range of {count} RIDs on {}: direct indexed fetch",
                        request.indexes[*index_pos].tree.name()
                    ),
                });
                let choice_ref = &request.indexes[*index_pos];
                let mut f = Fscan::new(
                    request.table,
                    choice_ref.tree,
                    choice_ref.range.clone(),
                    request.residual.clone(),
                    cost.clone(),
                );
                let outcome = tactics::drain(|| f.step(), |rid, rec| sink.deliver(rid, rec));
                rt.phase("fscan");
                outcome?;
                None
            }
            TacticChoice::SscanStatic => {
                let (pos, _) = plan.best_self_sufficient.expect("sscan without index");
                sscan_index = Some(pos);
                let c = &request.indexes[pos];
                let pred = c.self_sufficient.clone().expect("self-sufficient pred");
                let mut s = Sscan::new(c.tree, c.range.clone(), pred, cost.clone());
                let outcome =
                    tactics::drain(|| s.step(), |rid, rec| sink.deliver_from_index(rid, rec));
                rt.phase("sscan");
                outcome?;
                None
            }
            TacticChoice::BackgroundOnly => {
                let indexes = Self::jscan_indexes(request, &plan, None);
                let jscan = self.jscan(request, indexes, tracer);
                Some(tactics::background_only(request, jscan, &mut sink, &mut rt)?)
            }
            TacticChoice::FastFirst => {
                let indexes = Self::jscan_indexes(request, &plan, None);
                let foreground = Foreground::Borrowing;
                Some(self.compete(request, foreground, indexes, tracer, &mut sink, &mut rt)?)
            }
            TacticChoice::Sorted => {
                let pos = plan.best_order_index.expect("sorted without order index");
                let c = &request.indexes[pos];
                let foreground = Foreground::Ordered(Fscan::with_direction(
                    request.table,
                    c.tree,
                    c.range.clone(),
                    request.residual.clone(),
                    c.descending,
                    cost.clone(),
                ));
                let indexes = Self::jscan_indexes(request, &plan, Some(pos));
                Some(self.compete(request, foreground, indexes, tracer, &mut sink, &mut rt)?)
            }
            TacticChoice::IndexOnly => {
                let (pos, _) = plan.best_self_sufficient.expect("index-only without sscan");
                sscan_index = Some(pos);
                let c = &request.indexes[pos];
                let pred = c.self_sufficient.clone().expect("self-sufficient pred");
                let foreground =
                    Foreground::SelfSufficient(Sscan::new(c.tree, c.range.clone(), pred, cost.clone()));
                let indexes = Self::jscan_indexes(request, &plan, Some(pos));
                Some(self.compete(request, foreground, indexes, tracer, &mut sink, &mut rt)?)
            }
            TacticChoice::UnionScan => {
                let (rules, estimates) = (self.config.rules, &plan.jscan_estimates);
                Some(tactics::union_scan(request, estimates, rules, &mut sink, &mut rt)?)
            }
        };
        rt.finish();
        let cost_total = cost.total() - cost_before;
        if tracer.enabled() {
            let delta = request.table.pool().stats().since(&pool_before);
            tracer.emit_with(|| TraceEvent::PoolDelta {
                hits: delta.hits,
                misses: delta.misses,
            });
        }
        let deliveries = sink.into_deliveries();
        // The `Winner` event carries the detailed strategy, so trace
        // consumers can check switches against what really ran.
        tracer.emit_with(|| TraceEvent::Winner {
            strategy: detail.unwrap_or(choice.name()).to_string(),
            cost: cost_total,
            rows: deliveries.len(),
        });
        Ok(RetrievalResult {
            deliveries,
            cost: cost_total,
            strategy: choice.name(),
            sscan_index,
        })
    }
}

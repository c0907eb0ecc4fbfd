//! The baselines the paper argues against.
//!
//! * [`StaticOptimizer`] — a Selinger-style \[SACL79\] compile-time
//!   optimizer: it picks **one** plan from catalog statistics and default
//!   selectivity guesses (host-variable values are unknown at compile
//!   time), then executes that plan for every binding. This is the
//!   strawman of the paper's `AGE >= :A1` example: whichever plan it
//!   picks is badly wrong for one end of the parameter space.
//! * [`StaticJscan`] — the statically-thresholded multi-index access of
//!   Mohan et al. \[MoHa90\]: index subset and order are fixed up front
//!   from estimates; scans are never abandoned mid-run and the
//!   guaranteed-best bound is never re-tightened. "But one ill-predicted
//!   alternative execution cost, when not corrected dynamically, can put
//!   further execution off-balance and make it suboptimal."

use rdb_btree::KeyRange;
use rdb_storage::{HeapTable, Rid, StorageError};

use crate::fscan::Fscan;
use crate::request::{RetrievalRequest, RetrievalResult, Sink};
use crate::sscan::Sscan;
use crate::tactics::{drain, final_stage};
use crate::trace::{RunTrace, TraceEvent, Tracer};
use crate::tscan::Tscan;

/// Predicate shape visible at compile time (values are host variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredShape {
    /// `col = :x`.
    Eq,
    /// `col >= :x`, `col BETWEEN :a AND :b`, …
    Range,
    /// No usable restriction on this index.
    None,
}

/// Compile-time view of one index.
#[derive(Debug, Clone, Copy)]
pub struct StaticIndexInfo {
    /// Total index entries.
    pub entries: u64,
    /// Distinct leading-key values.
    pub distinct_keys: u64,
    /// Average fanout (for leaf-page estimates).
    pub avg_fanout: f64,
    /// Restriction shape on this index.
    pub shape: PredShape,
    /// Whether the index could run self-sufficiently.
    pub self_sufficient: bool,
}

/// The plan a static optimizer commits to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticPlan {
    /// Sequential scan.
    Tscan,
    /// Indexed retrieval through index `pos`.
    Fscan {
        /// Position in the request's index list.
        pos: usize,
    },
    /// Self-sufficient scan of index `pos`.
    Sscan {
        /// Position in the request's index list.
        pos: usize,
    },
}

/// Selinger-style mean-point cost optimizer.
#[derive(Debug, Clone, Copy)]
pub struct StaticOptimizer {
    /// Default selectivity assumed for range predicates with unknown
    /// host-variable values (System R's classic magic number is 1/3).
    pub default_range_selectivity: f64,
    /// Default selectivity for equality with unknown values when distinct
    /// counts are unavailable.
    pub default_eq_selectivity: f64,
}

impl Default for StaticOptimizer {
    fn default() -> Self {
        StaticOptimizer {
            default_range_selectivity: 1.0 / 3.0,
            default_eq_selectivity: 0.1,
        }
    }
}

impl StaticOptimizer {
    /// Guessed selectivity of an index's restriction at compile time.
    pub fn guess_selectivity(&self, info: &StaticIndexInfo) -> f64 {
        match info.shape {
            PredShape::Eq => {
                if info.distinct_keys > 0 {
                    1.0 / info.distinct_keys as f64
                } else {
                    self.default_eq_selectivity
                }
            }
            PredShape::Range => self.default_range_selectivity,
            PredShape::None => 1.0,
        }
    }

    /// Picks one plan from catalog statistics (no data access, no
    /// host-variable values — exactly the information a compile-time
    /// optimizer has).
    pub fn plan(&self, table: &HeapTable, indexes: &[StaticIndexInfo]) -> StaticPlan {
        let cfg = table.pool().cost_config();
        let tscan_cost =
            table.page_count() as f64 * cfg.io_read + table.cardinality() as f64 * cfg.cpu_record;
        let mut best = (StaticPlan::Tscan, tscan_cost);
        for (pos, info) in indexes.iter().enumerate() {
            if info.shape == PredShape::None {
                continue;
            }
            let sel = self.guess_selectivity(info);
            let matches = sel * info.entries as f64;
            let leaf_pages = (matches / info.avg_fanout.max(1.0)).ceil();
            let scan_cost = leaf_pages * cfg.io_read + matches * cfg.index_entry;
            if info.self_sufficient {
                let cost = scan_cost;
                if cost < best.1 {
                    best = (StaticPlan::Sscan { pos }, cost);
                }
            }
            // Fscan: scan + one random fetch per match.
            let cost = scan_cost + matches * (cfg.io_read + cfg.cpu_record);
            if cost < best.1 {
                best = (StaticPlan::Fscan { pos }, cost);
            }
        }
        best.0
    }

    /// Executes the committed plan against a bound request. The plan does
    /// not change with the binding — that is the point of this baseline.
    pub fn execute(
        &self,
        plan: StaticPlan,
        request: &RetrievalRequest<'_>,
    ) -> Result<RetrievalResult, StorageError> {
        self.execute_traced(plan, request, &Tracer::disabled())
    }

    /// [`StaticOptimizer::execute`] with a [`Tracer`] — the baseline emits
    /// the same `TacticChosen`/`PhaseCost`/`Winner` skeleton as the dynamic
    /// optimizer (with no refinements or switches: nothing changes at run
    /// time, which is the point), so traced comparisons line up.
    pub fn execute_traced(
        &self,
        plan: StaticPlan,
        request: &RetrievalRequest<'_>,
        tracer: &Tracer,
    ) -> Result<RetrievalResult, StorageError> {
        let meter = request.cost.clone();
        let mut rt = RunTrace::start(tracer, &meter);
        tracer.emit_with(|| TraceEvent::TacticChosen {
            tactic: format!("static {plan:?}"),
            estimation_nodes: 0,
        });
        let cost_before = meter.total();
        let mut sink = Sink::new(request.limit);
        match plan {
            StaticPlan::Tscan => {
                let mut s = Tscan::new(request.table, request.residual.clone(), meter.clone());
                drain(|| s.step(), |rid, record| sink.deliver(rid, record))?;
            }
            StaticPlan::Fscan { pos } => {
                let c = &request.indexes[pos];
                let mut s = Fscan::new(
                    request.table,
                    c.tree,
                    c.range.clone(),
                    request.residual.clone(),
                    meter.clone(),
                );
                drain(|| s.step(), |rid, record| sink.deliver(rid, record))?;
            }
            StaticPlan::Sscan { pos } => {
                let c = &request.indexes[pos];
                let pred = c
                    .self_sufficient
                    .clone()
                    .expect("static Sscan plan for non-self-sufficient index");
                let mut s = Sscan::new(c.tree, c.range.clone(), pred, meter.clone());
                drain(|| s.step(), |rid, record| sink.deliver_from_index(rid, record))?;
            }
        }
        rt.phase(match plan {
            StaticPlan::Tscan => "tscan",
            StaticPlan::Fscan { .. } => "fscan",
            StaticPlan::Sscan { .. } => "sscan",
        });
        rt.finish();
        let cost = meter.total() - cost_before;
        let deliveries = sink.into_deliveries();
        tracer.emit_with(|| TraceEvent::Winner {
            strategy: format!("static {plan:?}"),
            cost,
            rows: deliveries.len(),
        });
        Ok(RetrievalResult {
            deliveries,
            cost,
            strategy: match plan {
                StaticPlan::Tscan => "static Tscan",
                StaticPlan::Fscan { .. } => "static Fscan",
                StaticPlan::Sscan { .. } => "static Sscan",
            },
            sscan_index: match plan {
                StaticPlan::Sscan { pos } => Some(pos),
                _ => None,
            },
        })
    }
}

/// Statically-controlled joint scan \[MoHa90\]: the index subset and order
/// are fixed from the initial estimates; every selected index is scanned
/// to completion; no scan is ever abandoned.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticJscan;

impl StaticJscan {
    /// An index participates only if its estimated match count is at most
    /// this fraction of the table cardinality (fixed up front).
    pub const SELECTIVITY_THRESHOLD: f64 = 0.25;

    /// Runs the static multi-index plan: select indexes by threshold,
    /// scan each fully (intersecting), then fetch.
    pub fn run<'a>(
        &self,
        request: &RetrievalRequest<'a>,
        estimates: &[(usize, KeyRange, f64)],
    ) -> Result<RetrievalResult, StorageError> {
        let table = request.table;
        let tracer = Tracer::disabled();
        let meter = request.cost.clone();
        let mut rt = RunTrace::start(&tracer, &meter);
        let cost_before = meter.total();
        let mut sink = Sink::new(request.limit);

        let card = table.cardinality() as f64;
        let selected: Vec<&(usize, KeyRange, f64)> = estimates
            .iter()
            .filter(|(_, _, est)| *est <= Self::SELECTIVITY_THRESHOLD * card)
            .collect();

        if selected.is_empty() {
            // Below-threshold indexes only: sequential scan, committed.
            let mut s = Tscan::new(table, request.residual.clone(), meter.clone());
            drain(|| s.step(), |rid, record| sink.deliver(rid, record))?;
        } else {
            // Scan every selected index to completion; intersect as we go;
            // never abandon (the defining limitation of this baseline).
            let mut current: Option<Vec<Rid>> = None;
            for (pos, range, _) in selected {
                let tree = request.indexes[*pos].tree;
                let mut rids: Vec<Rid> = Vec::new();
                let mut scan = tree.range_scan(range.clone(), &meter);
                while let Some(rid) = scan.next_rid(tree, &meter)? {
                    rids.push(rid);
                }
                meter.charge_rid_ops(rids.len() as u64);
                current = Some(match current {
                    None => rids,
                    Some(mut prev) => {
                        prev.sort_unstable();
                        rids.retain(|r| prev.binary_search(r).is_ok());
                        rids
                    }
                });
            }
            let list = current.unwrap_or_default();
            let rid_list = crate::ridlist::RidList::from_vec(list);
            final_stage(
                table,
                &rid_list,
                &request.residual,
                &[],
                &mut sink,
                &mut rt,
                &meter,
            )?;
        }

        let cost = meter.total() - cost_before;
        Ok(RetrievalResult {
            deliveries: sink.into_deliveries(),
            cost,
            strategy: "static-jscan [MoHa90]",
            sscan_index: None,
        })
    }
}

/// Convenience used by experiments: the same estimates the dynamic initial
/// stage would compute, for feeding [`StaticJscan::run`].
pub fn estimate_all<'a>(request: &RetrievalRequest<'a>) -> Vec<(usize, KeyRange, f64)> {
    let mut v: Vec<(usize, KeyRange, f64)> = request
        .indexes
        .iter()
        .enumerate()
        .map(|(pos, c)| {
            let est = c.tree.estimate_range(&c.range, &request.cost);
            (pos, c.range.clone(), est.estimate)
        })
        .collect();
    v.sort_by(|a, b| a.2.total_cmp(&b.2));
    v
}

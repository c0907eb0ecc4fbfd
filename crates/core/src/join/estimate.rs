//! Planning-time join estimation: Section 2's JOIN selectivity
//! transformation plus a per-method cost model.
//!
//! The paper rewrites a join's result cardinality through the same
//! selectivity algebra as restrictions: for an equi-join on unique-ish
//! keys, `|L ⋈ R| = |L|·|R| / max(d_L, d_R)` where `d` is the join
//! column's distinct-key count (falling back to the side's cardinality
//! when no index can report one). Non-equi operators use the uniform
//! inequality fractions of Repas et al.: `<`/`<=`/`>`/`>=` keep half the
//! cross product, `<>` keeps all but the matching diagonal.
//!
//! It also decides the race's lanes ([`admit`]): the guaranteed lane,
//! whose cost is known before it runs, and the speculative lanes the kill
//! rules spare against it. The race and `EXPLAIN`'s join listing both
//! call it.
//!
//! This module is pure planning (rdb-lint F001): it never touches
//! fallible storage, only cardinality/height/fanout metadata and the
//! closed-form per-strategy cost formulas already pinned for the
//! single-table layer ([`Tscan::full_cost`], [`Sscan::scan_cost`],
//! [`Jscan::fetch_cost`]).

use crate::jscan::Jscan;
use crate::sscan::Sscan;
use crate::tscan::Tscan;
use rdb_competition::KillRules;
use rdb_storage::CostConfig;

use super::{JoinMethod, JoinOp, JoinRequest, SideId};

/// One enumerated candidate: a feasible method and its estimated total
/// cost if it ran alone.
#[derive(Debug, Clone, Copy)]
pub struct JoinEstimate {
    /// The method (with orientation).
    pub method: JoinMethod,
    /// Estimated total cost-meter delta to run it to completion.
    pub cost: f64,
}

/// Section 2's transformation: estimated result cardinality of
/// `left.join_col OP right.join_col` given the two sides' surviving-row
/// estimates and the larger join-key domain.
pub fn result_cardinality(l_rows: f64, r_rows: f64, distinct: f64, op: JoinOp) -> f64 {
    let cross = l_rows * r_rows;
    match op {
        JoinOp::Eq => cross / distinct.max(1.0),
        JoinOp::Ne => cross * (1.0 - 1.0 / distinct.max(1.0)),
        // Uniform-domain inequality fraction (Repas et al.): half the
        // cross product qualifies in expectation.
        JoinOp::Lt | JoinOp::Le | JoinOp::Gt | JoinOp::Ge => cross / 2.0,
    }
}

fn side<'r, 'a>(req: &'r JoinRequest<'a>, id: SideId) -> &'r super::JoinSide<'a> {
    match id {
        SideId::Left => &req.left,
        SideId::Right => &req.right,
    }
}

/// The larger join-key domain: distinct keys from whichever side's index
/// can report them (entries / avg leaf occupancy is unavailable, so the
/// tree length stands in — join columns are near-unique on the PK side,
/// where this matters), falling back to table cardinality.
fn join_domain(req: &JoinRequest<'_>) -> f64 {
    let dom = |id: SideId| {
        let s = side(req, id);
        match s.join_index {
            Some(tree) => tree.len() as f64,
            None => s.table.cardinality() as f64,
        }
    };
    dom(SideId::Left).max(dom(SideId::Right)).max(1.0)
}

/// Estimated result cardinality of the whole request.
pub fn request_cardinality(req: &JoinRequest<'_>) -> f64 {
    result_cardinality(req.left.est_rows, req.right.est_rows, join_domain(req), req.op)
}

/// Estimated cost of one method. Infallible; uses only metadata.
pub fn method_cost(req: &JoinRequest<'_>, method: JoinMethod, cfg: &CostConfig) -> f64 {
    let out = request_cardinality(req);
    match method {
        JoinMethod::NestedLoop { outer } => {
            let o = side(req, outer);
            let i = side(req, outer.other());
            // One full outer scan; the inner table rescans once per
            // surviving outer row — the first pass pays physical reads,
            // later passes hit the pool but still re-examine every row.
            let rescans = (o.est_rows - 1.0).max(0.0);
            Tscan::full_cost(o.table)
                + Tscan::full_cost(i.table)
                + rescans * (i.table.page_count() as f64) * cfg.cache_hit
                + o.est_rows.max(1.0) * (i.table.cardinality() as f64) * cfg.cpu_record
        }
        JoinMethod::IndexNested { outer } => {
            let o = side(req, outer);
            let i = side(req, outer.other());
            let height = i
                .join_index
                .map(|t| t.height() as f64)
                .unwrap_or(f64::INFINITY);
            // Outer scan, plus a root-to-leaf descent per outer row, plus
            // one heap fetch per produced pair.
            Tscan::full_cost(o.table)
                + o.est_rows * height * cfg.io_read
                + out * (cfg.io_read + cfg.cpu_record)
        }
        JoinMethod::Hash { build } => {
            let b = side(req, build);
            let p = side(req, build.other());
            // Scan both sides once; hashing the build rows and probing
            // with the probe rows is pure CPU.
            Tscan::full_cost(b.table)
                + Tscan::full_cost(p.table)
                + (b.est_rows + p.est_rows + out) * cfg.cpu_record
        }
        JoinMethod::Merge => {
            let (l, r) = (&req.left, &req.right);
            let (Some(lt), Some(rt)) = (l.join_index, r.join_index) else {
                return f64::INFINITY;
            };
            // Merge both indexes end to end, then fetch each side's
            // matched rows Cardenas-style (the Jscan final-stage model),
            // then one pair-assembly CPU charge per output row.
            Sscan::scan_cost(lt, lt.len() as f64)
                + Sscan::scan_cost(rt, rt.len() as f64)
                + Jscan::fetch_cost(l.table, out.min(l.table.cardinality() as f64))
                + Jscan::fetch_cost(r.table, out.min(r.table.cardinality() as f64))
                + out * cfg.cpu_record
        }
    }
}

/// True when `method` can run against this request's shapes.
pub fn feasible(req: &JoinRequest<'_>, method: JoinMethod) -> bool {
    match method {
        JoinMethod::NestedLoop { .. } => true,
        JoinMethod::IndexNested { outer } => side(req, outer.other()).join_index.is_some(),
        JoinMethod::Hash { .. } => req.op == JoinOp::Eq,
        JoinMethod::Merge => {
            req.op == JoinOp::Eq
                && req.left.join_index.is_some()
                && req.right.join_index.is_some()
        }
    }
}

/// The hash join's build side: the side with fewer estimated surviving
/// rows; ties go to fewer pages, then to left. Either orientation reads
/// both heaps once, so the smaller arena is the only difference.
fn hash_build_side(req: &JoinRequest<'_>) -> SideId {
    let (l, r) = (&req.left, &req.right);
    let smaller = r
        .est_rows
        .total_cmp(&l.est_rows)
        .then(r.table.page_count().cmp(&l.table.page_count()));
    if smaller.is_lt() {
        SideId::Right
    } else {
        SideId::Left
    }
}

/// Enumerates every feasible method with its cost estimate, cheapest
/// first. The hash join is listed in one orientation only, building on
/// the side with fewer estimated surviving rows (ties: fewer pages, then
/// left). The naive nested loops are always present, so the
/// list is never empty — the competition always has a guaranteed lane.
pub fn enumerate(req: &JoinRequest<'_>, cfg: &CostConfig) -> Vec<JoinEstimate> {
    let all = [
        JoinMethod::NestedLoop { outer: SideId::Left },
        JoinMethod::NestedLoop { outer: SideId::Right },
        JoinMethod::IndexNested { outer: SideId::Left },
        JoinMethod::IndexNested { outer: SideId::Right },
        JoinMethod::Hash {
            build: hash_build_side(req),
        },
        JoinMethod::Merge,
    ];
    let mut out: Vec<JoinEstimate> = all
        .into_iter()
        .filter(|&m| feasible(req, m))
        .map(|method| JoinEstimate {
            method,
            cost: method_cost(req, method, cfg),
        })
        .collect();
    out.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    out
}

/// The race's lanes for one request, decided before it spends a unit
/// (Section 3's two-stage competition).
#[derive(Debug, Clone)]
pub struct Admission {
    /// Every feasible method, cheapest first ([`enumerate`]).
    pub candidates: Vec<JoinEstimate>,
    /// The guaranteed lane G: the cheapest method whose cost is known
    /// before it runs — the hash join when one is feasible, else the
    /// cheaper nested loop. Its estimate is the race's guaranteed best.
    pub guaranteed: JoinEstimate,
    /// The speculative lanes raced against G, cheapest first.
    pub speculative: Vec<JoinEstimate>,
}

impl Admission {
    /// The candidates that are never raced, cheapest first.
    pub fn pruned(&self) -> impl Iterator<Item = &JoinEstimate> {
        self.candidates.iter().filter(|e| {
            e.method != self.guaranteed.method
                && !self.speculative.iter().any(|s| s.method == e.method)
        })
    }
}

/// Admits the race's lanes: G, plus each speculative method (index-nested,
/// merge-rid — whose cost hangs on data the planner cannot see) whose
/// estimate [`KillRules::judge`] spares against G's, exactly as it would
/// judge the lane's projection in the race.
pub fn admit(req: &JoinRequest<'_>, rules: &KillRules, cfg: &CostConfig) -> Admission {
    let candidates = enumerate(req, cfg);
    let first = |pick: fn(&JoinMethod) -> bool| candidates.iter().find(|e| pick(&e.method));
    let guaranteed = first(|m| matches!(m, JoinMethod::Hash { .. }))
        .or_else(|| first(|m| matches!(m, JoinMethod::NestedLoop { .. })))
        .copied()
        .unwrap_or_else(|| {
            let method = JoinMethod::NestedLoop { outer: SideId::Left };
            JoinEstimate {
                method,
                cost: method_cost(req, method, cfg),
            }
        });
    let speculative = candidates
        .iter()
        .filter(|e| matches!(e.method, JoinMethod::IndexNested { .. } | JoinMethod::Merge))
        .filter(|e| rules.judge(Some(e.cost), 0.0, guaranteed.cost).is_none())
        .copied()
        .collect();
    Admission {
        candidates,
        guaranteed,
        speculative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_join_cardinality_divides_by_the_larger_domain() {
        // 100 × 500 rows joined on a key with 500 distinct values: each
        // left row finds |R|/d = 1 partner on average.
        let est = result_cardinality(100.0, 500.0, 500.0, JoinOp::Eq);
        assert!((est - 100.0).abs() < 1e-9);
    }

    #[test]
    fn inequality_joins_keep_half_the_cross_product() {
        let est = result_cardinality(10.0, 20.0, 50.0, JoinOp::Lt);
        assert!((est - 100.0).abs() < 1e-9);
        let ne = result_cardinality(10.0, 20.0, 50.0, JoinOp::Ne);
        assert!(ne > 190.0 && ne < 200.0);
    }
}

//! Multi-table simulation: seeded two-table worlds whose join queries run
//! through the SQL layer's join competition and are differenced against a
//! naive nested-loop shadow oracle.
//!
//! One seed determines both tables' shapes, the key distribution linking
//! them (PK/FK-correlated, power-law skewed, disjoint, or NULL-heavy), the
//! index set, and the query batch. Every query runs four ways:
//!
//! 1. **Clean differential** — the SQL result's rows must bit-match the
//!    oracle's (multiset equality unlimited, containment + length under a
//!    LIMIT, sorted-prefix semantics under ORDER BY, exact count for
//!    `count(*)`).
//! 2. **Competition contract** — re-raced at the core layer: the dynamic
//!    join's cost must stay within the configured multiple of the best
//!    *static* join plan (every feasible method run alone, plan-committed),
//!    every killed lane must have died within the spend rule — at most
//!    `spend_limit` × its guaranteed best plus one quantum — and every
//!    pair of the dynamic result and of each forced method's full output
//!    must satisfy the query's predicates. A raced lane runs the same
//!    deterministic code as its forced run, only for less long, so its
//!    partial work is a prefix of output this check has verified.
//! 3. **Prepared replay** — the same statement through the plan cache must
//!    deliver the same rows as ad-hoc execution.
//! 4. **Fault campaign** — with random storage faults armed, a run either
//!    fails cleanly with the injected fault or returns exactly the right
//!    rows; a clean re-run afterwards proves no shared state was damaged.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdb_core::join::competition::JOIN_BATCH;
use rdb_core::{
    run_join, run_join_method, JoinMethod, JoinOp, JoinPair, JoinRequest, JoinSide, KillRules,
    SideId, TraceBuffer, TraceEvent, Tracer,
};
use rdb_query::prelude::*;
use rdb_storage::{FaultPolicy, StorageError};

use crate::failure::SimFailure;
use crate::harness::SimConfig;

/// How the right table's FK column relates to the left table's ID column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// Every FK hits an existing ID (uniform) — the classic PK/FK pair.
    Correlated,
    /// FKs follow a power law: a few parents own most children.
    Skewed,
    /// FK domain is disjoint from the ID domain — equi-joins come up empty.
    Disjoint,
    /// Roughly half the FKs are NULL (and NULL never matches).
    NullHeavy,
}

/// One generated two-table retrieval, carried in both forms: the SQL text
/// the engine executes and the structured shape the oracle evaluates.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// The SQL statement.
    pub sql: String,
    /// The driving comparison between L.ID and R.FK.
    pub op: JoinOp,
    /// Residual on L.K: inclusive bounds.
    pub l_res: Option<(i64, i64)>,
    /// Residual on R.W: inclusive bounds.
    pub r_res: Option<(i64, i64)>,
    /// Projection column names (empty means `count(*)`).
    pub projection: Vec<String>,
    /// ORDER BY target (always R.W when present).
    pub order_by: bool,
    /// LIMIT.
    pub limit: Option<usize>,
    /// The query is a `count(*)`.
    pub count_star: bool,
}

fn op_symbol(op: JoinOp) -> &'static str {
    match op {
        JoinOp::Eq => "=",
        JoinOp::Ne => "<>",
        JoinOp::Lt => "<",
        JoinOp::Le => "<=",
        JoinOp::Gt => ">",
        JoinOp::Ge => ">=",
    }
}

fn in_range(v: &Value, bounds: Option<(i64, i64)>) -> bool {
    match bounds {
        None => true,
        Some((lo, hi)) => match v {
            Value::Int(i) => *i >= lo && *i <= hi,
            _ => false,
        },
    }
}

/// A fully materialized two-table world: the database under test, shadow
/// copies of both tables, and the query batch — all derived from `seed`.
pub struct JoinScenario {
    /// The generating seed.
    pub seed: u64,
    /// The engine under test.
    pub db: Db,
    /// The key-distribution mode this seed drew.
    pub mode: KeyMode,
    /// Shadow copy of L (ID, K, V) in insertion order.
    pub left_shadow: Vec<Vec<Value>>,
    /// Shadow copy of R (FK, W) in insertion order.
    pub right_shadow: Vec<Vec<Value>>,
    /// The generated join queries.
    pub queries: Vec<JoinQuery>,
}

impl JoinScenario {
    /// Generates the scenario for `seed`. Same seed, same world.
    pub fn generate(seed: u64) -> JoinScenario {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
        let n_l = rng.gen_range(60usize..=220);
        let n_r = rng.gen_range(80usize..=400);
        let k_dom = rng.gen_range(4i64..=12);
        let w_dom = rng.gen_range(10i64..=60);
        let mode = match rng.gen_range(0u32..10) {
            0..=4 => KeyMode::Correlated,
            5..=6 => KeyMode::Skewed,
            7 => KeyMode::Disjoint,
            _ => KeyMode::NullHeavy,
        };

        let mut db = Db::builder().page_bytes(1024).open().unwrap();
        db.create_table(
            "L",
            Schema::new(vec![
                Column::new("ID", ValueType::Int),
                Column::new("K", ValueType::Int),
                Column::new("V", ValueType::Int),
            ]),
        )
        .expect("fresh catalog");
        db.create_table(
            "R",
            Schema::new(vec![
                Column::nullable("FK", ValueType::Int),
                Column::new("W", ValueType::Int),
            ]),
        )
        .expect("fresh catalog");

        let mut left_shadow = Vec::with_capacity(n_l);
        for i in 0..n_l {
            let row = vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..k_dom)),
                Value::Int(rng.gen_range(0..1000)),
            ];
            db.insert("L", row.clone()).expect("valid row");
            left_shadow.push(row);
        }
        let mut right_shadow = Vec::with_capacity(n_r);
        for _ in 0..n_r {
            let fk = match mode {
                KeyMode::Correlated => Value::Int(rng.gen_range(0..n_l as i64)),
                KeyMode::Skewed => {
                    // Power law: squaring a uniform [0,1) draw piles the
                    // mass onto the low IDs.
                    let u: f64 = rng.gen_range(0.0..1.0);
                    Value::Int((u * u * n_l as f64) as i64)
                }
                KeyMode::Disjoint => Value::Int(rng.gen_range(2 * n_l as i64..3 * n_l as i64)),
                KeyMode::NullHeavy => {
                    if rng.gen_bool(0.5) {
                        Value::Null
                    } else {
                        Value::Int(rng.gen_range(0..n_l as i64))
                    }
                }
            };
            let row = vec![fk, Value::Int(rng.gen_range(0..w_dom))];
            db.insert("R", row.clone()).expect("valid row");
            right_shadow.push(row);
        }

        // Index set: L.ID always (the PK side); R.FK and R.W by coin toss,
        // so the feasible method set varies per seed (no FK index kills
        // the merge join and one INLJ orientation).
        db.create_index("IDX_L_ID", "L", &["ID"]).expect("valid");
        if rng.gen_bool(0.7) {
            db.create_index("IDX_R_FK", "R", &["FK"]).expect("valid");
        }
        if rng.gen_bool(0.4) {
            db.create_index("IDX_R_W", "R", &["W"]).expect("valid");
        }

        let queries = gen_queries(&mut rng, k_dom, w_dom);
        JoinScenario {
            seed,
            db,
            mode,
            left_shadow,
            right_shadow,
            queries,
        }
    }

    /// The oracle: a naive nested loop over the shadow rows — no indexes,
    /// no cost model, no buffer pool. Returns the projected result rows in
    /// loop order.
    pub fn oracle_rows(&self, q: &JoinQuery) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for l in &self.left_shadow {
            if !in_range(&l[1], q.l_res) {
                continue;
            }
            for r in &self.right_shadow {
                if !in_range(&r[1], q.r_res) {
                    continue;
                }
                if !q.op.eval(&l[0], &r[0]) {
                    continue;
                }
                rows.push(project(l, r, &q.projection));
            }
        }
        rows
    }
}

fn project(l: &[Value], r: &[Value], projection: &[String]) -> Vec<Value> {
    projection
        .iter()
        .map(|c| match c.as_str() {
            "ID" => l[0].clone(),
            "K" => l[1].clone(),
            "V" => l[2].clone(),
            "FK" => r[0].clone(),
            "W" => r[1].clone(),
            other => unreachable!("projection {other} not in either schema"),
        })
        .collect()
}

fn gen_queries(rng: &mut StdRng, k_dom: i64, w_dom: i64) -> Vec<JoinQuery> {
    let n = 5;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        // Mostly equi-joins; inequality joins get tight residuals so the
        // pair count stays civil.
        let op = match rng.gen_range(0u32..10) {
            0..=6 => JoinOp::Eq,
            7 => JoinOp::Ne,
            8 => JoinOp::Lt,
            _ => JoinOp::Gt,
        };
        let tight = op != JoinOp::Eq;
        let l_res = if tight || rng.gen_bool(0.5) {
            let v = rng.gen_range(0..k_dom);
            Some(if tight { (v, v) } else { (v, v + k_dom / 2) })
        } else {
            None
        };
        let r_res = if tight || rng.gen_bool(0.5) {
            let v = rng.gen_range(0..w_dom);
            let width = if tight { 2 } else { w_dom / 3 };
            Some((v, v + width))
        } else {
            None
        };
        let count_star = rng.gen_bool(0.15);
        let order_by = !count_star && rng.gen_bool(0.35);
        let limit = if !count_star && rng.gen_bool(0.3) {
            Some(rng.gen_range(1usize..=7))
        } else {
            None
        };
        let projection: Vec<String> = if count_star {
            Vec::new()
        } else if rng.gen_bool(0.5) {
            vec!["ID".into(), "K".into(), "W".into()]
        } else {
            vec!["ID".into(), "FK".into(), "W".into()]
        };

        let mut sql = if count_star {
            "select count(*) from L, R where ".to_string()
        } else {
            format!("select {} from L, R where ", projection.join(", "))
        };
        sql.push_str(&format!("ID {} FK", op_symbol(op)));
        if let Some((lo, hi)) = l_res {
            sql.push_str(&format!(" and K between {lo} and {hi}"));
        }
        if let Some((lo, hi)) = r_res {
            sql.push_str(&format!(" and W between {lo} and {hi}"));
        }
        if order_by {
            sql.push_str(" order by W");
        }
        if let Some(limit) = limit {
            sql.push_str(&format!(" limit {limit}"));
        }
        sql.push(';');
        queries.push(JoinQuery {
            sql,
            op,
            l_res,
            r_res,
            projection,
            order_by,
            limit,
            count_star,
        });
    }
    queries
}

/// What one seed's join campaign did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JoinReport {
    /// The seed.
    pub seed: u64,
    /// Rows in L.
    pub left_rows: usize,
    /// Rows in R.
    pub right_rows: usize,
    /// Join queries executed.
    pub queries: usize,
    /// Oracle comparisons performed (clean + prepared + post-fault).
    pub checks: u64,
    /// Core-level cost-bound checks (dynamic vs best static join plan).
    pub cost_checks: u64,
    /// Join outputs (the dynamic race's, and each forced method's) whose
    /// every pair was fetched and satisfied the query's predicates.
    pub pair_checks: u64,
    /// Killed lanes whose spend passed the per-lane kill bound.
    pub kill_checks: u64,
    /// SQL runs executed with a fault policy armed.
    pub fault_runs: u64,
    /// Faulted runs that surfaced a clean injected-fault error.
    pub fault_errors: u64,
    /// Faulted runs that completed with a provably exact result.
    pub fault_ok: u64,
}

/// Differences one SQL result against the oracle, honouring count(*),
/// LIMIT, and ORDER BY semantics.
fn check_rows(
    q: &JoinQuery,
    got: &[Vec<Value>],
    oracle: &[Vec<Value>],
    what: &str,
) -> Result<(), SimFailure> {
    if q.count_star {
        let want = vec![vec![Value::Int(oracle.len() as i64)]];
        if got != want {
            return Err(SimFailure::row_set(format!(
                "{what}: count(*) returned {got:?}, oracle says {}",
                oracle.len()
            )));
        }
        return Ok(());
    }
    let expected_len = match q.limit {
        Some(limit) => oracle.len().min(limit),
        None => oracle.len(),
    };
    if got.len() != expected_len {
        return Err(SimFailure::row_set(format!(
            "{what}: {} rows delivered, oracle expects {expected_len} (of {} total)",
            got.len(),
            oracle.len()
        )));
    }
    if q.order_by {
        // W is the last projected column in every generated projection.
        let w = q.projection.len() - 1;
        let keys: Vec<i64> = got.iter().map(|row| row[w].as_i64().unwrap_or(i64::MIN)).collect();
        if !keys.windows(2).all(|p| p[0] <= p[1]) {
            return Err(SimFailure::order(format!(
                "{what}: ORDER BY W delivered unsorted keys {keys:?}"
            )));
        }
        // The delivered key multiset must be the sorted oracle prefix
        // (ties make the row choice free, the key choice not).
        let mut want: Vec<i64> = oracle
            .iter()
            .map(|row| row[w].as_i64().unwrap_or(i64::MIN))
            .collect();
        want.sort_unstable();
        want.truncate(expected_len);
        if keys != want {
            return Err(SimFailure::row_set(format!(
                "{what}: ORDER BY prefix keys {keys:?} != oracle prefix {want:?}"
            )));
        }
    }
    // Containment with multiplicity: every delivered row must consume one
    // oracle row. Without a limit the lengths match, so this is full
    // multiset equality — the bit-match.
    let mut pool: Vec<Option<String>> = oracle.iter().map(|r| Some(format!("{r:?}"))).collect();
    for row in got {
        let key = format!("{row:?}");
        match pool.iter_mut().find(|s| s.as_deref() == Some(key.as_str())) {
            Some(slot) => *slot = None,
            None => {
                return Err(SimFailure::row_set(format!(
                    "{what}: delivered row {row:?} not in (remaining) oracle multiset"
                )));
            }
        }
    }
    Ok(())
}

/// Builds the core-layer request mirroring `q` and hands it to `f` — the
/// request borrows the tables, so it cannot outlive this call.
fn with_core_request<T>(
    scenario: &JoinScenario,
    q: &JoinQuery,
    f: impl FnOnce(&JoinRequest<'_>) -> T,
) -> T {
    let db = &scenario.db;
    let left = db.heap("L").expect("table L exists");
    let right = db.heap("R").expect("table R exists");
    let l_res = q.l_res;
    let r_res = q.r_res;
    let l_kept = scenario
        .left_shadow
        .iter()
        .filter(|row| in_range(&row[1], l_res))
        .count();
    let r_kept = scenario
        .right_shadow
        .iter()
        .filter(|row| in_range(&row[1], r_res))
        .count();
    let mut lside = JoinSide::new(left).on_column(0).with_residual(
        Arc::new(move |r: &rdb_storage::Record| in_range(&r[1], l_res)),
        l_kept as f64,
    );
    let mut rside = JoinSide::new(right).on_column(0).with_residual(
        Arc::new(move |r: &rdb_storage::Record| in_range(&r[1], r_res)),
        r_kept as f64,
    );
    for tree in db.indexes("L").expect("table L exists") {
        if tree.key_columns().first() == Some(&0) {
            lside = lside.with_index(tree);
        }
    }
    for tree in db.indexes("R").expect("table R exists") {
        if tree.key_columns().first() == Some(&0) {
            rside = rside.with_index(tree);
        }
    }
    let req = JoinRequest::new(lside, rside, q.op, db.cost().clone());
    f(&req)
}

/// The dearest one quantum of a join lane can be: [`JOIN_BATCH`] work
/// units plus one atomic equal-key group (the largest on each side), every
/// unit a full descent of the taller join index plus a fetch with every
/// page a miss, and the group's RID cross product. (Measuring it instead
/// would bless whatever a step does.)
fn dearest_quantum(scenario: &JoinScenario, req: &JoinRequest<'_>) -> f64 {
    let largest_group = |rows: &[Vec<Value>]| {
        let mut keys: Vec<&Value> = rows
            .iter()
            .map(|r| &r[0])
            .filter(|k| !k.is_null())
            .collect();
        keys.sort_unstable();
        keys.chunk_by(|a, b| a == b)
            .map(<[_]>::len)
            .max()
            .unwrap_or(0)
    };
    let (gl, gr) = (
        largest_group(&scenario.left_shadow),
        largest_group(&scenario.right_shadow),
    );
    let height = [req.left.join_index, req.right.join_index]
        .into_iter()
        .flatten()
        .map(|t| t.height())
        .max()
        .unwrap_or(0) as f64;
    let price = req.cost.config();
    let units = (JOIN_BATCH + gl + gr) as f64;
    units * ((height + 1.0) * price.io_read + price.cpu_record + price.index_entry)
        + (gl * gr) as f64 * price.rid_op
}

/// Fetches both rows of every pair in `pairs` and checks them against
/// the query's predicates. The oracle is value-level, so RID-level
/// membership in the true result is checked directly: a pair belongs
/// exactly when its rows satisfy every predicate.
fn check_pairs(
    scenario: &JoinScenario,
    q: &JoinQuery,
    pairs: &[JoinPair],
    who: &str,
) -> Result<(), SimFailure> {
    let db = &scenario.db;
    let (left, right) = (
        db.heap("L").expect("table L exists"),
        db.heap("R").expect("table R exists"),
    );
    let cost = db.cost();
    let fetch = |table: &rdb_storage::HeapTable, rid| {
        table
            .fetch(rid, cost)
            .map_err(|e| SimFailure::execution(format!("{who} pair fetch died: {e}")))
    };
    for pair in pairs {
        let (l, r) = (fetch(left, pair.left_rid)?, fetch(right, pair.right_rid)?);
        if !(q.op.eval(&l[0], &r[0]) && in_range(&l[1], q.l_res) && in_range(&r[1], q.r_res)) {
            return Err(SimFailure::row_set(format!(
                "{who} delivered pair ({}, {}) that fails the predicates",
                pair.left_rid, pair.right_rid
            )));
        }
    }
    Ok(())
}

/// Core-layer competition contract: dynamic cost vs best static join plan,
/// the per-lane kill bound, and the pair check of every join output.
fn competition_contract(
    scenario: &JoinScenario,
    q: &JoinQuery,
    cfg: &SimConfig,
    report: &mut JoinReport,
) -> Result<(), SimFailure> {
    let db = &scenario.db;

    db.clear_cache();
    let rules = KillRules::default();
    let events = TraceBuffer::shared(4096);
    let (dynamic, quantum) = with_core_request(scenario, q, |req| {
        let quantum = dearest_quantum(scenario, req);
        run_join(req, &rules, &Tracer::new(events.clone())).map(|r| (r, quantum))
    })
    .map_err(|e| SimFailure::execution(format!("dynamic join died: {e}")))?;

    // Per-lane kill contract: a lane dies at its first judgement past the
    // spend line, so it overshoots by at most the quantum that crossed.
    for event in events.take() {
        if let TraceEvent::JoinKilled {
            method,
            spent,
            guaranteed_best,
            ..
        } = event
        {
            let bound = rules.spend_limit * guaranteed_best + quantum;
            if spent > bound {
                return Err(SimFailure::cost_bound(format!(
                    "{method} spent {spent:.1} before its kill; the spend rule allows \
                     {bound:.1} ({} x {guaranteed_best:.1} plus one quantum {quantum:.1})",
                    rules.spend_limit
                )));
            }
            report.kill_checks += 1;
        }
    }

    let oracle_len = scenario.oracle_rows(&JoinQuery {
        projection: vec!["ID".into()],
        count_star: false,
        order_by: false,
        limit: None,
        ..q.clone()
    })
    .len();
    if dynamic.pairs.len() != oracle_len {
        return Err(SimFailure::row_set(format!(
            "core dynamic join ({}) delivered {} pairs, oracle says {oracle_len}",
            dynamic.strategy,
            dynamic.pairs.len()
        )));
    }
    check_pairs(scenario, q, &dynamic.pairs, dynamic.strategy)?;
    report.pair_checks += 1;

    // Best static plan: every feasible method, run alone to completion.
    let mut best_static = f64::INFINITY;
    for method in [
        JoinMethod::NestedLoop { outer: SideId::Left },
        JoinMethod::NestedLoop { outer: SideId::Right },
        JoinMethod::IndexNested { outer: SideId::Left },
        JoinMethod::IndexNested { outer: SideId::Right },
        JoinMethod::Hash { build: SideId::Left },
        JoinMethod::Hash { build: SideId::Right },
        JoinMethod::Merge,
    ] {
        let feasible = with_core_request(scenario, q, |req| {
            rdb_core::join::estimate::feasible(req, method)
        });
        if !feasible {
            continue;
        }
        db.clear_cache();
        let single = with_core_request(scenario, q, |req| {
            run_join_method(req, method)
        })
        .map_err(|e| SimFailure::execution(format!("static {} died: {e}", method.label())))?;
        if single.pairs.len() != oracle_len {
            return Err(SimFailure::row_set(format!(
                "static {} delivered {} pairs, oracle says {oracle_len}",
                method.label(),
                single.pairs.len()
            )));
        }
        best_static = best_static.min(single.cost);
        report.checks += 1;
        check_pairs(scenario, q, &single.pairs, single.strategy)?;
        report.pair_checks += 1;
    }
    if best_static.is_finite() && dynamic.cost > cfg.cost_mult * best_static + cfg.cost_slack {
        return Err(SimFailure::cost_bound(format!(
            "dynamic join cost {:.1} vs best static {best_static:.1} \
             (bound {:.1}; strategy {})",
            dynamic.cost,
            cfg.cost_mult * best_static + cfg.cost_slack,
            dynamic.strategy
        )));
    }
    report.cost_checks += 1;
    Ok(())
}

/// Runs the full join campaign for one seed.
pub fn run_join_seed(seed: u64, cfg: &SimConfig) -> Result<JoinReport, SimFailure> {
    let scenario = JoinScenario::generate(seed);
    let mut report = JoinReport {
        seed,
        left_rows: scenario.left_shadow.len(),
        right_rows: scenario.right_shadow.len(),
        queries: scenario.queries.len(),
        ..JoinReport::default()
    };
    let opts = QueryOptions::new();
    for (qi, q) in scenario.queries.iter().enumerate() {
        let ctx = |what: &str| {
            format!(
                "seed {seed} join query {qi} [{}] mode {:?} {what}",
                q.sql, scenario.mode
            )
        };
        let oracle = scenario.oracle_rows(q);

        // 1. Clean differential through the SQL layer.
        scenario.db.clear_cache();
        let result = scenario
            .db
            .query(&q.sql, &opts)
            .map_err(|e| SimFailure::execution(format!("SQL join died: {e}")).ctx(ctx("clean")))?;
        check_rows(q, &result.rows, &oracle, "sql-join").map_err(|e| e.ctx(ctx("clean")))?;
        report.checks += 1;

        // 2. Core-layer competition contract (cost and kill bounds, pair
        // checks).
        competition_contract(&scenario, q, cfg, &mut report)
            .map_err(|e| e.ctx(ctx("competition")))?;

        // 3. Prepared replay: same statement through the plan cache, twice
        // (cold skeleton, then warm) — both must match the oracle.
        let stmt = scenario
            .db
            .prepare(&q.sql)
            .map_err(|e| SimFailure::execution(format!("prepare died: {e}")).ctx(ctx("prepared")))?;
        for round in 0..2 {
            scenario.db.clear_cache();
            let prepared = stmt.execute(&opts).map_err(|e| {
                SimFailure::execution(format!("prepared round {round} died: {e}"))
                    .ctx(ctx("prepared"))
            })?;
            check_rows(q, &prepared.rows, &oracle, "prepared-join")
                .map_err(|e| e.ctx(ctx("prepared")))?;
            report.checks += 1;
        }

        // 4. Fault campaign: every outcome is legal except a wrong answer.
        for &rate in &cfg.fault_rates {
            let fault_seed = seed
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(qi as u64)
                ^ rate.to_bits();
            scenario
                .db
                .pool()
                .set_fault_policy(Some(FaultPolicy::random(fault_seed, rate)));
            scenario.db.clear_cache();
            let outcome = scenario.db.query(&q.sql, &opts);
            scenario.db.pool().set_fault_policy(None);
            report.fault_runs += 1;
            match outcome {
                Ok(result) => {
                    check_rows(q, &result.rows, &oracle, "faulted-join")
                        .map_err(|e| e.ctx(ctx("faulted: Ok run returned damaged rows")))?;
                    report.fault_ok += 1;
                    report.checks += 1;
                }
                Err(QueryError::Storage(StorageError::InjectedFault { .. })) => {
                    report.fault_errors += 1;
                }
                Err(e) => {
                    return Err(SimFailure::fault_contract(format!(
                        "fault rate {rate}: surfaced a non-injected error: {e}"
                    ))
                    .ctx(ctx("faulted")));
                }
            }
            // Aftermath: the same query must run clean.
            scenario.db.clear_cache();
            let result = scenario.db.query(&q.sql, &opts).map_err(|e| {
                SimFailure::fault_contract(format!("clean re-run after fault died: {e}"))
                    .ctx(ctx("faulted"))
            })?;
            check_rows(q, &result.rows, &oracle, "post-fault-join")
                .map_err(|e| e.ctx(ctx("faulted: state damaged")))?;
            report.checks += 1;
        }
    }
    Ok(report)
}

/// The join harness's self-test: deliberately drop one row from a result
/// and verify the differential comparison fails.
pub fn join_mutation_check(start_seed: u64) -> Result<(), SimFailure> {
    for seed in start_seed..start_seed.saturating_add(32) {
        let scenario = JoinScenario::generate(seed);
        for q in &scenario.queries {
            if q.count_star || q.limit.is_some() {
                continue;
            }
            let oracle = scenario.oracle_rows(q);
            if oracle.is_empty() {
                continue;
            }
            let mut result = scenario
                .db
                .query(&q.sql, &QueryOptions::new())
                .map_err(|e| SimFailure::mutation(format!("mutation check: join died: {e}")))?;
            result.rows.pop(); // the deliberately injected row-set bug
            return match check_rows(q, &result.rows, &oracle, "mutation") {
                Err(_) => Ok(()),
                Ok(()) => Err(SimFailure::mutation(format!(
                    "join mutation check FAILED: oracle did not notice a dropped row (seed {seed})"
                ))),
            };
        }
    }
    Err(SimFailure::mutation(
        "join mutation check could not find a non-empty unlimited join in 32 seeds",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = JoinScenario::generate(42);
        let b = JoinScenario::generate(42);
        assert_eq!(a.left_shadow, b.left_shadow);
        assert_eq!(a.right_shadow, b.right_shadow);
        assert_eq!(
            a.queries.iter().map(|q| &q.sql).collect::<Vec<_>>(),
            b.queries.iter().map(|q| &q.sql).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_few_seeds_pass_clean() {
        let cfg = SimConfig {
            fault_rates: vec![0.01],
            ..SimConfig::default()
        };
        for seed in 1..=6 {
            run_join_seed(seed, &cfg).unwrap();
        }
    }

    #[test]
    fn mutation_check_has_teeth() {
        join_mutation_check(1).unwrap();
    }

    #[test]
    fn all_key_modes_reachable_within_seed_window() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 1..200 {
            seen.insert(format!("{:?}", JoinScenario::generate(seed).mode));
            if seen.len() == 4 {
                return;
            }
        }
        panic!("not all key modes reachable: {seen:?}");
    }
}

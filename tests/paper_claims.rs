//! Executable checks of the paper's headline claims — the assertions that
//! EXPERIMENTS.md reports are verified here so `cargo test --workspace`
//! re-validates the reproduction.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rdb_bench::fixtures::JscanFixture;
use rdb_btree::KeyRange;
use rdb_competition::{direct_competition_cost, two_stage_cost, CostDist, TwoStageConfig};
use rdb_core::baseline::{estimate_all, PredShape, StaticIndexInfo};
use rdb_core::{
    DynamicOptimizer, IndexChoice, OptimizeGoal, RecordPred, RetrievalRequest, StaticJscan,
    StaticOptimizer, StaticPlan,
};
use rdb_core::join::estimate::result_cardinality;
use rdb_core::join::JoinOp;
use rdb_dist::{and, apply_spec, fit_hyperbola, join_unique, Correlation, Pdf, ShapeSummary};
use rdb_storage::{Record, Value};
use rdb_workload::{families_db, FamiliesConfig};

/// Section 2: intermediate selectivity distributions are predominantly
/// L-shaped/Zipf-like; hyperbola fits sharpen with chain length.
#[test]
fn claim_l_shape_dominance_and_hyperbola_fits() {
    let u = Pdf::uniform();
    let chains = ["&X", "&&X", "&&&X"];
    let mut prev_err = f64::MAX;
    for (i, spec) in chains.iter().enumerate() {
        let pdf = apply_spec(spec, &u, Correlation::Unknown);
        let fit = fit_hyperbola(&pdf);
        assert!(fit.rel_error < prev_err, "{spec}: fits must sharpen");
        prev_err = fit.rel_error;
        if i >= 1 {
            assert!(
                ShapeSummary::of(&pdf).is_l_shaped_at_zero(),
                "{spec} must be L-shaped"
            );
        }
    }
    assert!(prev_err < 0.05, "&&&X must be nearly hyperbolic: {prev_err}");
}

/// Section 2, pinned: the paper quotes the truncated-hyperbola fit error
/// as about 1/4 for `&X`, 1/7 for `&&X`, and 1/23 for `&&&X`. Those are
/// bounds on the relative error; our fits must land at or under each one
/// (and must not be suspiciously perfect, which would mean the fitter is
/// comparing a hyperbola against itself).
#[test]
fn claim_hyperbola_fit_errors_match_paper() {
    let u = Pdf::uniform();
    for (spec, bound) in [("&X", 1.0 / 4.0), ("&&X", 1.0 / 7.0), ("&&&X", 1.0 / 23.0)] {
        let pdf = apply_spec(spec, &u, Correlation::Unknown);
        let err = fit_hyperbola(&pdf).rel_error;
        assert!(
            err <= bound,
            "{spec}: fit error {err:.4} exceeds the paper's bound {bound:.4}"
        );
        assert!(
            err > bound / 20.0,
            "{spec}: fit error {err:.6} is implausibly small — fitter degenerate?"
        );
    }
}

/// Section 2, pinned: the JOIN selectivity transformation. A join on a
/// key unique in all underlying tables "behaves almost identically to
/// the AND operator", so the dist layer's `join_unique` must coincide
/// with `and` bin-for-bin under every correlation assumption; and the
/// planner's closed-form rewrite must keep the paper's fractions of the
/// cross product — `1/d` for equality, `1 − 1/d` for `<>`, and one half
/// for the range comparisons.
#[test]
fn claim_join_selectivity_transformation() {
    // Dist layer: JOIN ≡ AND once selectivity is defined over the key
    // domain, whatever the correlation assumption.
    let u = Pdf::uniform();
    let b = Pdf::bell(0.2, 0.01);
    for corr in [
        Correlation::Unknown,
        Correlation::Exact(0.0),
        Correlation::Exact(1.0),
    ] {
        let j = join_unique(&u, &b, corr);
        let a = and(&u, &b, corr);
        assert_eq!(j.bins(), a.bins());
        for i in 0..j.bins() {
            assert!(
                (j.weight(i) - a.weight(i)).abs() < 1e-12,
                "{corr:?}: join_unique must match the AND operator at bin {i}"
            );
        }
    }

    // Planner layer: anchors of the cardinality rewrite.
    // (l_rows, r_rows, distinct, op, expected |L JOIN R|)
    let anchors = [
        (100.0, 500.0, 500.0, JoinOp::Eq, 100.0),    // |L|·|R| / d
        (100.0, 500.0, 0.0, JoinOp::Eq, 50_000.0),   // empty domain clamps to 1
        (100.0, 500.0, 500.0, JoinOp::Ne, 49_900.0), // cross · (1 − 1/d)
        (10.0, 20.0, 50.0, JoinOp::Lt, 100.0),       // inequalities keep half
        (10.0, 20.0, 50.0, JoinOp::Le, 100.0),
        (10.0, 20.0, 50.0, JoinOp::Gt, 100.0),
        (10.0, 20.0, 50.0, JoinOp::Ge, 100.0),
    ];
    for (l, r, d, op, want) in anchors {
        let got = result_cardinality(l, r, d, op);
        assert!(
            (got - want).abs() < 1e-9,
            "{op:?} with l={l} r={r} d={d}: got {got}, want {want}"
        );
    }
}

/// Section 3, pinned: with a_1 already running and a_2 switched in at
/// cost c_2 = 1, the expected cost of the direct competition is exactly
/// (m2 + c2 + M1) / 2, where m2 is a_2's mean below the switch point and
/// M1 is a_1's full mean.
#[test]
fn claim_direct_competition_cost_formula() {
    let c2 = 1.0;
    let a1 = CostDist::l_shape(1.0, 200.0);
    let a2 = CostDist::l_shape(1.0, 240.0);
    let out = direct_competition_cost(&a1, &a2, c2);
    let m2 = a2.mean_below(c2).expect("a_2 has mass below the switch point");
    let m1_full = a1.mean();
    let formula = (m2 + c2 + m1_full) / 2.0;
    assert!(
        (out.expected_cost - formula).abs() < 0.05,
        "expected cost {} must equal (m2 + c2 + M1)/2 = {formula}",
        out.expected_cost
    );
}

/// Section 3: switching at the knee costs (m2+c2+M1)/2 ≈ M1/2.
#[test]
fn claim_direct_competition_halves_cost() {
    let a1 = CostDist::l_shape(1.0, 200.0);
    let a2 = CostDist::l_shape(1.0, 240.0);
    let out = direct_competition_cost(&a1, &a2, 1.0);
    assert!(
        out.speedup() > 1.8 && out.speedup() < 2.2,
        "'about twice smaller': speedup {}",
        out.speedup()
    );
}

/// Section 3: two-stage competition beats both static commitments, and
/// needs no L-shape assumption.
#[test]
fn claim_two_stage_competition_beats_static() {
    let mut rng = StdRng::seed_from_u64(1);
    for a2 in [
        CostDist::l_shape(2.0, 400.0),
        CostDist::Uniform { lo: 0.0, hi: 150.0 },
    ] {
        let out = two_stage_cost(
            &CostDist::Fixed(50.0),
            &a2,
            &TwoStageConfig::default(),
            &mut rng,
            100_000,
        );
        assert!(
            out.expected_cost < out.best_static(),
            "{a2:?}: {} vs {}",
            out.expected_cost,
            out.best_static()
        );
    }
}

/// Section 4: the AGE >= :A1 query — dynamic near-oracle at both extremes,
/// any committed static plan catastrophic at one of them.
#[test]
fn claim_host_variable_problem_solved() {
    let db = families_db(&FamiliesConfig {
        rows: 10_000,
        ..FamiliesConfig::default()
    });
    let table = db.heap("FAMILIES").expect("fixture");
    let idx = db
        .indexes("FAMILIES")
        .expect("fixture")
        .iter()
        .find(|i| i.name() == "IDX_AGE")
        .expect("age index");
    let dynamic = DynamicOptimizer::default();
    let static_opt = StaticOptimizer::default();
    let request = |a1: i64| -> RetrievalRequest<'_> {
        let residual: RecordPred = Arc::new(move |r: &Record| r[1].as_i64().unwrap() >= a1);
        RetrievalRequest {
            table,
            cost: table.pool().cost().clone(),
            indexes: vec![IndexChoice::fetch_needed(idx, KeyRange::at_least(a1))],
            arms: Vec::new(),
            residual,
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
        }
    };
    let mut worst_dyn_ratio: f64 = 0.0;
    let mut worst_tscan: f64 = 0.0;
    let mut worst_fscan: f64 = 0.0;
    for a1 in [0i64, 50, 95, 200] {
        db.clear_cache();
        let dyn_run = dynamic.run(&request(a1)).unwrap();
        db.clear_cache();
        let t = static_opt.execute(StaticPlan::Tscan, &request(a1)).unwrap();
        db.clear_cache();
        let f = static_opt.execute(StaticPlan::Fscan { pos: 0 }, &request(a1)).unwrap();
        let oracle = t.cost.min(f.cost);
        worst_dyn_ratio = worst_dyn_ratio.max(dyn_run.cost / oracle);
        worst_tscan = worst_tscan.max(t.cost / oracle);
        worst_fscan = worst_fscan.max(f.cost / oracle);
    }
    assert!(
        worst_dyn_ratio < 1.5,
        "dynamic must stay near the oracle at every binding: {worst_dyn_ratio}"
    );
    assert!(
        worst_tscan > 3.0 && worst_fscan > 1.5,
        "each static plan must blow up somewhere: tscan {worst_tscan}, fscan {worst_fscan}"
    );
}

/// Section 6: the dynamic Jscan abandons a misestimated scan mid-run; the
/// statically-thresholded \[MoHa90\] variant cannot and pays for it.
#[test]
fn claim_dynamic_jscan_beats_static_thresholds() {
    let f = JscanFixture::build(30_000, &[1000, 4], 200_000);
    // c1's range covers 75% of the table: the static threshold (25%) was
    // computed from a *misleading* estimate we inject below; dynamic Jscan
    // sees the truth during the scan and abandons.
    let residual: RecordPred =
        Arc::new(|r: &Record| r[0] == Value::Int(1) && r[1].as_i64().unwrap() <= 2);
    let request = || RetrievalRequest {
        table: &f.table,
        cost: f.table.pool().cost().clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.indexes[0], KeyRange::eq(1)),
            IndexChoice::fetch_needed(&f.indexes[1], KeyRange::at_most(2)),
        ],
        arms: Vec::new(),
        residual: residual.clone(),
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    };
    f.cold();
    let dynamic = DynamicOptimizer::default().run(&request()).unwrap();
    f.cold();
    let req = request();
    let mut est = estimate_all(&req);
    // The static plan believed the big index was selective (the kind of
    // estimation error Section 2 proves is routine).
    for e in &mut est {
        e.2 = e.2.min(1000.0);
    }
    let stat = StaticJscan.run(&req, &est).unwrap();
    assert_eq!(dynamic.deliveries.len(), stat.deliveries.len());
    assert!(
        dynamic.cost < 0.7 * stat.cost,
        "dynamic {} must clearly beat static {}",
        dynamic.cost,
        stat.cost
    );
}

/// Section 5: empty/tiny ranges resolve at estimation cost (OLTP path).
#[test]
fn claim_oltp_shortcuts_are_near_free() {
    let db = families_db(&FamiliesConfig {
        rows: 20_000,
        ..FamiliesConfig::default()
    });
    db.clear_cache();
    let full = db
        .query(
            "select ID from FAMILIES where AGE >= 0",
            &rdb_query::QueryOptions::new(),
        )
        .expect("query");
    db.clear_cache();
    let empty = db
        .query(
            "select ID from FAMILIES where AGE >= 1000",
            &rdb_query::QueryOptions::new(),
        )
        .expect("query");
    assert!(empty.rows.is_empty());
    assert!(
        empty.cost < 0.01 * full.cost,
        "empty {} vs full {}",
        empty.cost,
        full.cost
    );
}

/// Section 5: descent-to-split estimation is orders of magnitude cheaper
/// than scanning, and exact on small ranges. The paper's `k·f^(l−1)` is
/// pinned by name; the engine's edge descent counts every range exactly
/// for at most two more nodes per level below the split.
#[test]
fn claim_estimation_cheap_and_exact_on_small_ranges() {
    let f = JscanFixture::build(50_000, &[1], 200_000);
    let idx = &f.indexes[1];
    let cost = idx.pool().cost();
    let est = idx.estimate_range_paper(&KeyRange::closed(100, 102), cost);
    assert!(est.exact || est.estimate <= 64.0, "{est:?}");
    assert!(est.nodes_visited <= idx.height());
    let wide = KeyRange::closed(10_000, 30_000);
    let paper = idx.estimate_range_paper(&wide, cost);
    let truth = 20_001.0;
    assert!(
        (paper.estimate / truth) > 0.2 && (paper.estimate / truth) < 5.0,
        "wide estimate {} vs {truth}",
        paper.estimate
    );
    let counted = idx.estimate_range(&wide, cost);
    assert_eq!(counted.estimate, truth);
    assert!(counted.nodes_visited <= idx.height() + 2 * (counted.split_level - 1));
}

/// The PredShape/StaticIndexInfo baseline surface stays wired (compile-
/// time-only guard that the experiments' static optimizer is configured
/// the way the paper describes \[SACL79\]).
#[test]
fn claim_static_baseline_uses_magic_selectivities() {
    let opt = StaticOptimizer::default();
    let info = StaticIndexInfo {
        entries: 100,
        distinct_keys: 0,
        avg_fanout: 10.0,
        shape: PredShape::Eq,
        self_sufficient: false,
    };
    assert!((opt.guess_selectivity(&info) - 0.1).abs() < 1e-12);
    let range = StaticIndexInfo {
        shape: PredShape::Range,
        ..info
    };
    assert!((opt.guess_selectivity(&range) - 1.0 / 3.0).abs() < 1e-12);
}

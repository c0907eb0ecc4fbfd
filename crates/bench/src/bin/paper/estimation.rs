//! E7, E8, HIST and E18: §5's estimation by descent to a split node, its
//! OLTP shortcuts, the stored histograms it argues against, and §2's
//! correlation claim read off real data.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdb_bench::fixtures::JscanFixture;
use rdb_bench::histogram::Histogram;
use rdb_bench::report::fmt;
use rdb_btree::{BTree, KeyRange, RangeEstimate, SampleMethod, Sampler};
use rdb_core::Tscan;
use rdb_dist::ops::and_selectivity;
use rdb_query::QueryOptions;
use rdb_storage::{shared_meter, shared_pool, CostConfig, FileId, Rid, Value};

use super::Role::Dynamic;
use super::{note, Clock, Contender, Fixtures, Outcome, Part, Scenario};

/// E7 and E8's fixture: 100 000 rows, `c0 = i % 1000`, and the index on
/// the unique `id` column. Its pool holds the ≈ 9 000 pages with room to
/// spare: clearing the 200 000-page pool of the other fixtures sweeps its
/// slot table through the CPU caches, which multiplies the clock of a cold
/// descent several times over.
fn unique(f: &Fixtures) -> (&JscanFixture, &BTree) {
    let fx = f
        .unique
        .get_or_init(|| JscanFixture::build(100_000 / f.shrink as i64, &[1000], 16_384));
    (fx, &fx.indexes[1])
}

/// One cold estimate of `fx`'s `id` index per labelled closed range, by
/// the engine's edge descent: its units are the pages the descent read,
/// its count the nodes it touched, and its clock is in ns. The note reads
/// the paper's `k·f^(l−1)` and the engine's count again, on a meter of
/// their own, and hands both to `read`.
fn descents<'a>(
    title: String,
    fx: &'a JscanFixture,
    axis: &'static str,
    bounds: &[(String, i64, i64)],
    note_headers: &'static str,
    read: impl Fn(usize, &Outcome, &RangeEstimate, &RangeEstimate) -> Vec<String> + 'a,
) -> Part<'a> {
    let tree = &fx.indexes[1];
    let ranges: Rc<[KeyRange]> = bounds
        .iter()
        .map(|&(_, lo, hi)| KeyRange::closed(lo, hi))
        .collect();
    let (noted, scratch) = (ranges.clone(), shared_meter(CostConfig::default()));
    let descent = Contender {
        name: "descent",
        role: Dynamic,
        run: Box::new(move |b, _| {
            let cost = tree.pool().cost();
            let estimate = tree.estimate_range(&ranges[b], cost);
            Outcome {
                rows: estimate.nodes_visited as usize,
                cost: cost.total(),
                ..Outcome::default()
            }
        }),
    };
    Part::Raced(Scenario {
        count: "nodes",
        note: note(note_headers, move |b, o, _| {
            let paper = tree.estimate_range_paper(&noted[b], &scratch);
            read(b, o, &paper, &tree.estimate_range(&noted[b], &scratch))
        }),
        clock: Clock::Ns,
        ..Scenario::new(
            title,
            &fx.table,
            axis,
            bounds.iter().map(|(label, ..)| label.clone()).collect(),
            vec![descent],
        )
    })
}

/// E7, Figure 5: RangeRIDs ≈ k·f^(l−1) against the truth across range
/// sizes, tiny and empty ranges included, beside the counted ablation
/// (exact child counts, 50 % edges, same descent) and the engine's
/// edge-descent count, which is timed; then \[Ant92\] ranked sampling
/// against acceptance/rejection \[OlRo89\].
pub(super) fn e7(f: &Fixtures) -> Vec<Part<'_>> {
    let (fx, idx) = unique(f);
    let bounds = [
        (50_000, 49_999),   // empty (lo > hi)
        (200_000, 300_000), // empty (outside the domain)
        (5_000, 5_000),
        (5_000, 5_002),
        (5_000, 5_030),
        (5_000, 5_300),
        (5_000, 8_000),
        (5_000, 35_000),
        (0, 99_999),
    ];
    let labelled = bounds.map(|(lo, hi)| (format!("[{lo},{hi}]"), lo, hi));
    let truth = move |lo: i64, hi: i64| (hi.min(fx.n - 1) - lo.max(0) + 1).max(0) as f64;
    let counted = shared_meter(CostConfig::default());
    let read = move |b: usize, _: &Outcome, est: &RangeEstimate, count: &RangeEstimate| {
        let (lo, hi) = bounds[b];
        let t = truth(lo, hi);
        let ratio = match (t > 0.0, est.estimate == 0.0) {
            (true, _) => fmt(est.estimate / t),
            (false, true) => "exact".into(),
            (false, false) => "inf".into(),
        };
        let counted = idx.estimate_range_counted(&KeyRange::closed(lo, hi), &counted);
        vec![
            fmt(t),
            fmt(est.estimate),
            ratio,
            format!("l={} k={}", est.split_level, est.k),
            if est.exact { "yes" } else { "no" }.into(),
            fmt(counted.estimate),
            fmt(count.estimate),
        ]
    };
    let title = format!(
        "Figure 5 descent to a split node vs truth, engine's edge-descent count timed: \
         {} entries, height {}, avg fanout {:.1}",
        idx.len(),
        idx.height(),
        idx.avg_fanout()
    );
    let headers = "truth|k*f^(l-1)|est/truth|split|exact|counted|edge count";
    let scenario = descents(title, fx, "range", &labelled, headers, read);

    let (lo, hi) = (5_000, 8_000);
    let in_range = |k: &[Value], _: Rid| (lo..=hi).contains(&k[0].as_i64().expect("int key"));
    let mut rng = StdRng::seed_from_u64(7);
    let rows = [100, 400, 1600]
        .iter()
        .map(|&samples| {
            let mut estimate = |method| {
                let mut sampler = Sampler::new(idx, method);
                let selectivity = sampler
                    .estimate_selectivity(samples, &mut rng, idx.pool().cost(), in_range)
                    .expect("a non-empty index");
                (selectivity * fx.n as f64, sampler.descents())
            };
            let (ranked, ranked_descents) = estimate(SampleMethod::Ranked);
            let (ar, ar_descents) = estimate(SampleMethod::AcceptReject);
            vec![
                format!("{samples} samples"),
                truth(lo, hi).to_string(),
                fmt(ranked),
                ranked_descents.to_string(),
                fmt(ar),
                ar_descents.to_string(),
                fmt(ar_descents as f64 / ranked_descents as f64),
            ]
        })
        .collect();
    vec![
        scenario,
        Part::Units(
            format!("Sampling estimator [Ant92] vs acceptance/rejection [OlRo89], [{lo},{hi}]"),
            "budget|truth|ranked est|descents|A/R est|A/R descents|A/R waste factor",
            rows,
        ),
    ]
}

/// E8, §5 shortcuts: an empty or tiny range is detected by the estimate
/// itself, so every retrieval stage is cancelled at the price of one
/// descent, orders of magnitude below any productive phase.
pub(super) fn e8(f: &Fixtures) -> Vec<Part<'_>> {
    let (fx, _) = unique(f);
    let tscan = Tscan::full_cost(&fx.table);
    let cases = [
        ("empty range", 500_000, 600_000),
        ("tiny range (3)", 42, 44),
        ("small range (300)", 42, 341),
    ]
    .map(|(label, lo, hi)| (label.to_string(), lo, hi));
    let read = move |_: usize, o: &Outcome, est: &RangeEstimate, count: &RangeEstimate| {
        let ratio = format!("{:.4}%", o.cost / tscan * 100.0);
        vec![fmt(est.estimate), fmt(count.estimate), fmt(tscan), ratio]
    };
    let title = "§5 shortcuts: edge-descent cost vs productive scan cost".into();
    let headers = "k*f^(l-1)|edge count|Tscan cost|ratio";
    vec![descents(title, fx, "case", &cases, headers, read)]
}

/// §5's argument against stored histograms, on an index with a hole (ids
/// 0..40k and 60k..100k). Histograms estimate wide ranges well, but cannot
/// detect tiny or empty ranges below bucket granularity, the cases the
/// paper says "must be detected and scanned first"; the descent is exact
/// on them and needs no rescan to stay current.
pub(super) fn hist(_: &Fixtures) -> Vec<Part<'_>> {
    let pool = shared_pool(200_000, shared_meter(CostConfig::default()));
    let mut holed = BTree::new("idx_holed", FileId(40), pool, vec![0], 64);
    for i in (0..40_000i64).chain(60_000..100_000) {
        holed.insert(vec![Value::Int(i)], Rid::new((i % 1_000_000) as u32, 0));
    }
    let cost = holed.pool().cost();
    let width = Histogram::equi_width(&holed, 50, cost).expect("numeric keys");
    let depth = Histogram::equi_depth(&holed, 50, cost).expect("numeric keys");
    let rows = [
        ("wide live range", 0i64, 29_999i64, 30_000.0),
        ("range in the hole (empty)", 45_000, 45_999, 0.0),
        ("tiny range (3 keys)", 70_000, 70_002, 3.0),
        ("tiny range in hole (empty)", 50_000, 50_002, 0.0),
    ]
    .iter()
    .map(|&(label, lo, hi, truth)| {
        let r = KeyRange::closed(lo, hi);
        let d = holed.estimate_range(&r, cost);
        let estimates = [
            width.estimate_range(&r),
            depth.estimate_range(&r),
            d.estimate,
        ];
        let mut row = vec![label.to_string(), fmt(truth)];
        row.extend(estimates.map(fmt));
        row.push(if d.exact { "exact" } else { "est" }.into());
        row
    })
    .collect();
    vec![Part::Units(
        "Stored histograms vs descent to split node (the Section 5 argument)".into(),
        "range|truth|equi-width(50)|equi-depth(50)|descent|descent kind",
        rows,
    )]
}

/// E18, §2 on data: FAMILIES.INCOME_BAND copies AGE with 80% probability,
/// so `AGE = x AND INCOME_BAND = x` sits at the `c = +1` anchor of the
/// paper's correlation formula, tens of times above the independence
/// estimate `sel(AGE=x) · sel(IB=x)` a compile-time optimizer would use.
pub(super) fn e18(f: &Fixtures) -> Vec<Part<'_>> {
    let db = f.db(&f.families_30k, 30_000);
    let n = db.heap("FAMILIES").expect("fixture table").cardinality() as f64;
    let selectivity = |filter: String| {
        let sql = format!("select ID from FAMILIES where {filter}");
        let rows = db.query(&sql, &QueryOptions::new()).expect("query").rows;
        rows.len() as f64 / n
    };
    let rows = [5i64, 30, 70]
        .iter()
        .map(|x| {
            let sa = selectivity(format!("AGE = {x}"));
            let sb = selectivity(format!("INCOME_BAND = {x}"));
            let st = selectivity(format!("AGE = {x} and INCOME_BAND = {x}"));
            let independent = and_selectivity(sa, sb, 0.0);
            let percents = [sa, sb, st, independent, and_selectivity(sa, sb, 1.0)];
            let mut row = vec![format!("x = {x}")];
            row.extend(percents.map(|s| fmt(s * 100.0)));
            row.push(format!("x{:.0}", st / independent.max(1e-12)));
            row
        })
        .collect();
    vec![Part::Units(
        format!(
            "Correlation vs the independence estimate of a [SACL79]-style optimizer, on \
             FAMILIES ({n} rows)"
        ),
        "binding|sel(AGE)%|sel(IB)%|true AND%|indep. AND%|c=+1 AND%|indep. error",
        rows,
    )]
}

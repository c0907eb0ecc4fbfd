//! A1–A4: ablations of the dynamic optimizer's design choices.

use std::sync::Arc;

use rdb_bench::fixtures::{discards, JscanFixture};
use rdb_bench::report::fmt;
use rdb_btree::{BTree, KeyRange};
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, InitialStage, JscanConfig, KillRules, RecordPred,
    RetrievalRequest,
};
use rdb_storage::{shared_meter, CostConfig, FileId, Record, Value};

use super::Role::Dynamic;
use super::{note, request, tuned, Fixtures, Part, Scenario};

/// `c0 = a AND c1 <= b` through both indexes.
fn point_and_range(fx: &JscanFixture, a: i64, b: i64) -> RetrievalRequest<'_> {
    let residual: RecordPred =
        Arc::new(move |r: &Record| r[0] == Value::Int(a) && r[1] <= Value::Int(b));
    let indexes = vec![
        IndexChoice::fetch_needed(&fx.indexes[0], KeyRange::eq(a)),
        IndexChoice::fetch_needed(&fx.indexes[1], KeyRange::at_most(b)),
    ];
    request(&fx.table, indexes, residual)
}

/// A1: the two-stage switch threshold (the paper's "e.g. becomes 95%"),
/// swept on two opposing workloads of `c0 = 1 AND c1 <= 1`, with the
/// direct spend criterion and the tiny-list shortcut off so that the
/// threshold alone decides. The paper's 0.95 is near-best on the second
/// workload while giving up little on the first.
pub(super) fn a1(f: &Fixtures) -> Vec<Part<'_>> {
    const THRESHOLDS: [f64; 5] = [0.3, 0.6, 0.95, 1.5, 1e9];
    let workloads = [
        (
            "abandon-right: c1 <= 1 covers 2/5 of the table, so abandoning its scan early \
             is right",
            f.jscan(&f.abandon_right, 30_000, &[500, 5]),
        ),
        (
            "abandon-wrong: c1 <= 1 is a 500-entry scan whose 20-rid intersection is far \
             below the 60-rid guaranteed best",
            f.jscan(&f.abandon_wrong, 30_000, &[500, 60]),
        ),
    ];
    let config = |b: usize| DynamicConfig {
        rules: KillRules {
            switch_threshold: THRESHOLDS[b],
            spend_limit: 1e9,
        },
        jscan: JscanConfig {
            tiny_list_shortcut: 0,
            ..JscanConfig::default()
        },
        ..DynamicConfig::default()
    };
    const LABELS: [&str; 5] = ["0.3", "0.6", "0.95", "1.5", "never switch"];
    workloads
        .into_iter()
        .map(|(workload, fx)| {
            Part::Raced(Scenario {
                note: note("abandoned", |_, _, events| {
                    vec![discards(events).to_string()]
                }),
                ..Scenario::new(
                    format!("two-stage switch threshold (paper uses 0.95), {workload}"),
                    &fx.table,
                    "threshold",
                    LABELS.map(String::from).to_vec(),
                    vec![tuned("dynamic", Dynamic, config, move |_| {
                        point_and_range(fx, 1, 1)
                    })],
                )
            })
        })
        .collect()
}

/// A2: Jscan's tiny-list shortcut (≤ 20 RIDs end the scan at once) on and
/// off for a point lookup, with the initial stage's own tiny-range
/// shortcut off so that the Jscan-level one is isolated.
pub(super) fn a2(f: &Fixtures) -> Vec<Part<'_>> {
    let fx = f.jscan(&f.points, 30_000, &[10_000, 5]);
    const SHORTCUT: [usize; 2] = [20, 0];
    let config = |b: usize| DynamicConfig {
        jscan: JscanConfig {
            tiny_list_shortcut: SHORTCUT[b],
            ..JscanConfig::default()
        },
        initial: InitialStage {
            tiny_range_threshold: 0,
        },
        ..DynamicConfig::default()
    };
    vec![Part::Raced(Scenario::new(
        "tiny-list shortcut (<=20 RIDs ends Jscan immediately): c0 = 7 and c1 <= 3",
        &fx.table,
        "tiny shortcut",
        vec!["on (paper)".into(), "off".into()],
        vec![tuned("dynamic", Dynamic, config, move |_| {
            point_and_range(fx, 7, 3)
        })],
    ))]
}

/// A3: §6's "limited simultaneous scanning of two adjacent indexes" is a
/// remedy for a preorder the estimates got wrong. The engine's estimates
/// are exact counts, so its preorder is the order of true scan lengths and
/// the remedy is gone. The paper's formula k·f^(l−1) still misorders a
/// pair: the 30-entry `id` range it prices highest (one straddling a high
/// node boundary) against the `c0` value it prices lowest. The table ranks
/// the pair by each estimator beside the true scan lengths.
pub(super) fn a3(f: &Fixtures) -> Vec<Part<'_>> {
    let fx = f.jscan(&f.straddle, 30_000, &[100]);
    let (c0, id) = (&fx.indexes[0], &fx.indexes[1]);
    let meter = shared_meter(CostConfig::default());
    let paper = |tree: &BTree, range: &KeyRange| tree.estimate_range_paper(range, &meter).estimate;
    let span = |lo: i64| KeyRange::closed(lo, lo + 29);
    let straddling = (0..fx.n - 30).map(|lo| (paper(id, &span(lo)), lo));
    let quiet = (0..100).map(|v| (paper(c0, &KeyRange::eq(v)), v));
    let by_estimate = |a: &(f64, i64), b: &(f64, i64)| a.0.total_cmp(&b.0);
    let (Some((_, lo)), Some((_, v))) = (straddling.max_by(by_estimate), quiet.min_by(by_estimate))
    else {
        return Vec::new();
    };
    let pair = [
        (c0, format!("c0 = {v}"), KeyRange::eq(v)),
        (id, format!("id in [{lo}, {}]", lo + 29), span(lo)),
    ];
    let paper_est = pair.each_ref().map(|(tree, _, range)| paper(tree, range));
    let counts = pair.each_ref().map(|(tree, _, range)| {
        tree.estimate_range(range, &meter).estimate
    });
    let rank = |est: &[f64; 2], k: usize| (1 + usize::from(est[1 - k] < est[k])).to_string();
    let rows = pair
        .iter()
        .enumerate()
        .map(|(k, (tree, label, range))| {
            vec![
                format!("{} ({label})", tree.name()),
                tree.count_range(range.clone(), &meter).to_string(),
                fmt(paper_est[k]),
                rank(&paper_est, k),
                fmt(counts[k]),
                rank(&counts, k),
            ]
        })
        .collect();
    vec![Part::Units(
        "Jscan preorder of a straddling pair: the paper's k·f^(l−1) against the engine's count"
            .into(),
        "index (range)|entries|k·f^(l−1)|paper order|count|count order",
        rows,
    )]
}

/// A4, §3(c) cache interference: the same retrieval under foreign-page
/// pressure on the fixture's 200 000-page pool, for two working sets. A
/// re-referenced one (the whole sweep is one timeline, with a run before
/// every pressure level) stays at its warm cost: the midpoint policy keeps
/// re-referenced pages young. A once-touched one (cold, one run, pressure,
/// rerun) is evicted by pressure beyond the pool. A sequence of pool
/// states is the claim, so there is no cold-start clock to read.
pub(super) fn a4(f: &Fixtures) -> Vec<Part<'_>> {
    let fx = f.jscan(&f.interference, 30_000, &[500]);
    let run = || {
        let residual: RecordPred = Arc::new(|r: &Record| r[0] == Value::Int(1));
        let index = IndexChoice::fetch_needed(&fx.indexes[0], KeyRange::eq(1));
        let request = request(&fx.table, vec![index], residual);
        DynamicOptimizer::default()
            .run(&request)
            .expect("in-memory retrieval")
            .cost
    };
    // One run, `pages` foreign pages of pressure, and the rerun's cost.
    let pressed = |pages| {
        let first = run();
        fx.table.pool().perturb(FileId(4242), pages);
        (first, run())
    };
    const FOREIGN: [u32; 4] = [0, 100_000, 199_000, 400_000];
    fx.cold();
    let cold_start = run();
    let re_referenced = FOREIGN.map(|pages| pressed(pages).1);
    let once_touched = FOREIGN.map(|pages| {
        fx.cold();
        pressed(pages)
    });
    // Costs are differences of one running meter, so equal work can
    // differ in the last bits.
    let warm = re_referenced[0];
    assert!(
        re_referenced.iter().all(|&c| (c - warm).abs() < 1e-9),
        "A4: pressure must not evict a re-referenced working set: {re_referenced:?}"
    );
    let evicted = once_touched[FOREIGN.len() - 1].1;
    assert!(
        evicted >= 10.0 * warm,
        "A4: pressure beyond the pool must evict a once-touched working set: {evicted} vs \
         warm {warm}"
    );
    let mut rows = vec![vec![
        "cold start".into(),
        fmt(cold_start),
        fmt(once_touched[0].0),
    ]];
    rows.extend((0..FOREIGN.len()).map(|i| {
        let label = format!("warm + {} foreign pages", FOREIGN[i]);
        vec![label, fmt(re_referenced[i]), fmt(once_touched[i].1)]
    }));
    vec![Part::Units(
        "cache interference: one retrieval under foreign-page pressure, by working set".into(),
        "scenario|re-referenced|once-touched",
        rows,
    )]
}

//! E6, E9–E14, E16, E19: the retrieval claims of §4 and §6–§8, the
//! dynamic optimizer raced against the static plans it replaces.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdb_bench::fixtures::{discards, JscanFixture};
use rdb_btree::{BTree, KeyRange};
use rdb_core::baseline::{
    estimate_all, PredShape, StaticIndexInfo, StaticJscan,
};
use rdb_core::ridlist::RidTierConfig;
use rdb_core::StaticPlan::{Fscan, Tscan};
use rdb_core::{
    IndexChoice, KeyPred, OptimizeGoal, RecordPred, RetrievalRequest, StaticOptimizer, StaticPlan,
    TraceEvent,
};
use rdb_query::Db;
use rdb_storage::{HeapTable, Record, Value};

use super::Role::{Committed, Dynamic, Forced, Reference};
use super::{dynamic, forced, note, request, Contender, Fixtures, Outcome, Part, Scenario};

const AGE: usize = 1;
const CITY: usize = 2;
const REGION: usize = 3;

/// FAMILIES through its heap and its indexes on AGE, CITY, REGION and
/// INCOME_BAND, in that order.
#[derive(Clone, Copy)]
struct Families<'a> {
    table: &'a HeapTable,
    indexes: &'a [BTree],
}

impl<'a> Families<'a> {
    fn of(db: &'a Db) -> Self {
        Families {
            table: db.heap("FAMILIES").expect("fixture table"),
            indexes: db.indexes("FAMILIES").expect("fixture indexes"),
        }
    }

    /// `select * from FAMILIES where <col> >= v`, through the column's index.
    fn at_least(self, col: usize, v: i64) -> RetrievalRequest<'a> {
        let residual: RecordPred = Arc::new(move |r: &Record| r[col] >= Value::Int(v));
        let index = IndexChoice::fetch_needed(&self.indexes[col - AGE], KeyRange::at_least(v));
        request(self.table, vec![index], residual)
    }

    /// `select * from FAMILIES where <col> = v`, through the column's index.
    fn equals(self, col: usize, v: i64) -> RetrievalRequest<'a> {
        let residual: RecordPred = Arc::new(move |r: &Record| r[col] == Value::Int(v));
        let index = IndexChoice::fetch_needed(&self.indexes[col - AGE], KeyRange::eq(v));
        request(self.table, vec![index], residual)
    }

    /// The plan a static optimizer commits to for a `shape` restriction on
    /// `col`, from index statistics alone, before any binding is known.
    fn committed(self, col: usize, shape: PredShape) -> StaticPlan {
        let stats = self.indexes[col - AGE].stats();
        StaticOptimizer::default().plan(
            self.table,
            &[StaticIndexInfo {
                entries: stats.entries,
                distinct_keys: stats.distinct_keys,
                avg_fanout: stats.avg_fanout,
                shape,
                self_sufficient: false,
            }],
        )
    }
}

/// `c0 = a AND c1 = b` through both single-column indexes.
fn c0_c1(fx: &JscanFixture, a: i64, b: i64) -> RetrievalRequest<'_> {
    let residual: RecordPred =
        Arc::new(move |r: &Record| r[0] == Value::Int(a) && r[1] == Value::Int(b));
    let indexes = vec![
        IndexChoice::fetch_needed(&fx.indexes[0], KeyRange::eq(a)),
        IndexChoice::fetch_needed(&fx.indexes[1], KeyRange::eq(b)),
    ];
    request(&fx.table, indexes, residual)
}

/// `c` over bindings `0..n` in turn, on one warm timeline, as one binding.
fn whole_mix(c: Contender<'_>, n: usize) -> Contender<'_> {
    let Contender { name, role, run } = c;
    Contender {
        name,
        role,
        run: Box::new(move |_, tracer| {
            let mut sum = Outcome::default();
            for b in 0..n {
                let o = run(b, tracer);
                sum.rows += o.rows;
                sum.cost += o.cost;
            }
            sum
        }),
    }
}

/// The per-query oracle of a warm mix: both static plans run at every
/// query on one shared timeline, and it is charged, and timed, the
/// cheaper of the two.
fn per_query_oracle<'a>(
    req: impl Fn(usize) -> RetrievalRequest<'a> + 'a,
    n: usize,
) -> Contender<'a> {
    Contender {
        name: "per-query oracle*",
        role: Forced,
        run: Box::new(move |_, _| {
            let mut sum = Outcome {
                clock: Some(Duration::ZERO),
                ..Outcome::default()
            };
            for b in 0..n {
                let [(t_tscan, tscan), (t_fscan, fscan)] = [Tscan, Fscan { pos: 0 }].map(|plan| {
                    let start = Instant::now();
                    let r = StaticOptimizer::default()
                        .execute(plan, &req(b))
                        .expect("in-memory retrieval");
                    (start.elapsed(), r)
                });
                sum.rows += tscan.deliveries.len();
                sum.cost += tscan.cost.min(fscan.cost);
                sum.clock = sum.clock.map(|c| c + t_tscan.min(t_fscan));
            }
            sum
        }),
    }
}

/// E6, §4: `select * from FAMILIES where AGE >= :A1` swept from all rows
/// to none. A plan committed before :A1 is known is right on one side of
/// the crossover only.
pub(super) fn e6(f: &Fixtures) -> Vec<Part<'_>> {
    let fam = Families::of(f.db(&f.families_20k, 20_000));
    let committed = fam.committed(AGE, PredShape::Range);
    const A1: [i64; 9] = [0, 20, 50, 80, 90, 95, 99, 100, 200];
    let req = move |b: usize| fam.at_least(AGE, A1[b]);
    vec![Part::Raced(Scenario {
        note: note("dynamic tactic", |_, o, _| vec![o.strategy.into()]),
        ..Scenario::new(
            format!(
                "§4 select * from FAMILIES where AGE >= :A1; the static optimizer committed \
                 {committed:?} on its 1/3 range-selectivity guess"
            ),
            fam.table,
            "binding",
            A1.iter().map(|a| format!(":A1={a}")).collect(),
            vec![
                dynamic("dynamic", Dynamic, req),
                forced("static(committed)", Committed, move |_| committed, req),
                forced("static Tscan", Forced, |_| Tscan, req),
                forced("static Fscan", Forced, |_| Fscan { pos: 0 }, req),
            ],
        )
    })]
}

/// E9, §6 / Figure 6: `c0 < K AND c1 = 1`, the Jscan against statically
/// thresholded Jscan \[MoHa90\], Fscan and Tscan as `c0`'s selectivity sweeps.
pub(super) fn e9(f: &Fixtures) -> Vec<Part<'_>> {
    let fx = f.jscan(&f.sweep, 50_000, &[1000, 50]);
    const K: [i64; 6] = [2, 10, 50, 200, 600, 1000];
    let req = move |b: usize| {
        let k = K[b];
        let residual: RecordPred =
            Arc::new(move |r: &Record| r[0] < Value::Int(k) && r[1] == Value::Int(1));
        let indexes = vec![
            IndexChoice::fetch_needed(&fx.indexes[0], KeyRange::at_most(k - 1)),
            IndexChoice::fetch_needed(&fx.indexes[1], KeyRange::eq(1)),
        ];
        request(&fx.table, indexes, residual)
    };
    vec![Part::Raced(Scenario {
        note: note("scans abandoned", |_, _, events| {
            vec![discards(events).to_string()]
        }),
        ..Scenario::new(
            "§6 Jscan: c0 < K (swept) and c1 = 1 (fixed 1/50)",
            &fx.table,
            "sweep",
            K.iter().map(|k| format!("K={k}")).collect(),
            vec![
                dynamic("dynamic Jscan", Dynamic, req),
                Contender {
                    name: "static Jscan[MoHa90]",
                    role: Forced,
                    run: Box::new(move |b, _| {
                        let r = req(b);
                        StaticJscan
                            .run(&r, &estimate_all(&r))
                            .expect("in-memory retrieval")
                            .into()
                    }),
                },
                forced("Fscan(c1)", Forced, |_| Fscan { pos: 1 }, req),
                forced("Tscan", Forced, |_| Tscan, req),
            ],
        )
    })]
}

/// E10's note: the tactic, and the RID-list tier its final list landed in.
fn rid_tier(o: &Outcome, events: &[TraceEvent]) -> String {
    let final_stage = events
        .iter()
        .any(|e| matches!(e, TraceEvent::PhaseCost { phase, .. } if phase == "final-stage"));
    let final_list = events.iter().rev().find_map(|e| match e {
        TraceEvent::ScanCompleted { kept, .. } => Some(*kept),
        _ => None,
    });
    let tiers = RidTierConfig::default();
    let tier = match (o.strategy, final_list) {
        ("TinyRangeFetch", _) => "tiny-shortcut",
        ("EndOfData", _) => "empty-shortcut",
        (_, Some(0)) if final_stage => "empty",
        (_, Some(n)) if final_stage && n <= tiers.inline_max => "inline",
        (_, Some(n)) if final_stage && n <= tiers.buffer_max => "buffer",
        (_, Some(_)) if final_stage => "spilled",
        _ => "(direct)",
    };
    format!("{}, {tier}", o.strategy)
}

/// E10, §6: the tiered RID-list storage under L-shaped result sizes —
/// zero to a shortcut, up to 20 to the static buffer, medium to the heap
/// buffer, huge to a temporary table and bitmap.
pub(super) fn e10(f: &Fixtures) -> Vec<Part<'_>> {
    let fx = f.jscan(&f.tiers, 50_000, &[50_000]);
    const SIZES: [i64; 11] = [0, 1, 3, 7, 15, 20, 40, 120, 800, 4000, 9000];
    let req = move |b: usize| {
        let s = SIZES[b];
        let residual: RecordPred = Arc::new(move |r: &Record| r[0] < Value::Int(s));
        let index = IndexChoice::fetch_needed(&fx.indexes[0], KeyRange::at_most(s - 1));
        request(&fx.table, vec![index], residual)
    };
    vec![Part::Raced(Scenario {
        note: note("tactic, tier", |_, o, events| vec![rid_tier(o, events)]),
        ..Scenario::new(
            "§6 tiered RID storage: c0 < size",
            &fx.table,
            "result size",
            SIZES.iter().map(|s| format!("{s} rids")).collect(),
            vec![dynamic("dynamic", Dynamic, req)],
        )
    })]
}

/// E11, §7: background-only (Jscan and a sorted final fetch) for a
/// total-time goal over fetch-needed indexes.
pub(super) fn e11(f: &Fixtures) -> Vec<Part<'_>> {
    let (fx, _) = f.pair();
    const AB: [(i64, i64); 3] = [(1, 1), (1, 40), (150, 1)];
    let req = move |b: usize| c0_c1(fx, AB[b].0, AB[b].1);
    vec![Part::Raced(Scenario {
        note: note("tactic", |_, o, _| vec![o.strategy.into()]),
        winners: true,
        ..Scenario::new(
            "§7 background-only tactic (total-time, fetch-needed only)",
            &fx.table,
            "restriction",
            AB.iter().map(|(a, b)| format!("c0={a},c1={b}")).collect(),
            vec![
                dynamic("background-only", Dynamic, req),
                forced("Fscan", Forced, |_| Fscan { pos: 0 }, req),
                forced("Tscan", Forced, |_| Tscan, req),
            ],
        )
    })]
}

/// E12, §7: fast-first, whose foreground borrows the background Jscan's
/// RIDs: near Fscan when the consumer stops early, near background-only
/// when it runs to completion.
pub(super) fn e12(f: &Fixtures) -> Vec<Part<'_>> {
    let (fx, _) = f.pair();
    const LIMITS: [Option<usize>; 4] = [Some(1), Some(5), Some(25), None];
    let req = move |b: usize, goal| RetrievalRequest {
        goal,
        limit: LIMITS[b],
        ..c0_c1(fx, 1, 1)
    };
    let fast_first = move |b| req(b, OptimizeGoal::FastFirst);
    let total_time = move |b| req(b, OptimizeGoal::TotalTime);
    vec![Part::Raced(Scenario {
        winners: true,
        ..Scenario::new(
            "§7 fast-first tactic: c0 = 1 and c1 = 1, stopped early or not",
            &fx.table,
            "termination",
            LIMITS
                .iter()
                .map(|l| l.map_or("run to completion".into(), |n| format!("stop after {n}")))
                .collect(),
            vec![
                dynamic("fast-first", Dynamic, fast_first),
                dynamic("background-only", Reference, total_time),
                forced("Fscan", Forced, |_| Fscan { pos: 0 }, fast_first),
            ],
        )
    })]
}

/// E13, §7: the sorted tactic, an order-needed Fscan whose fetches a
/// background Jscan filter rejects before they happen.
pub(super) fn e13(f: &Fixtures) -> Vec<Part<'_>> {
    let fx = f.jscan(&f.ordered, 40_000, &[400, 80]);
    const SEL: [i64; 3] = [1, 5, 40];
    let req = move |b: usize, filter: bool| {
        let sel = SEL[b];
        let residual: RecordPred = Arc::new(move |r: &Record| r[0] < Value::Int(sel));
        let mut indexes =
            vec![IndexChoice::fetch_needed(&fx.indexes[2], KeyRange::all()).with_order()];
        if filter {
            indexes.push(IndexChoice::fetch_needed(
                &fx.indexes[0],
                KeyRange::at_most(sel - 1),
            ));
        }
        RetrievalRequest {
            goal: OptimizeGoal::FastFirst,
            order_required: true,
            ..request(&fx.table, indexes, residual)
        }
    };
    let (filtered, alone) = (move |b| req(b, true), move |b| req(b, false));
    vec![Part::Raced(Scenario {
        winners: true,
        ..Scenario::new(
            "§7 sorted tactic: c0 < sel order by id",
            &fx.table,
            "restriction",
            SEL.iter().map(|s| format!("c0<{s}")).collect(),
            vec![
                dynamic("sorted (Fscan+Jscan filter)", Dynamic, filtered),
                // Offered the ordered index alone, the optimizer has nothing
                // to race: this is the forced order-needed Fscan.
                dynamic("Fscan alone", Forced, alone),
            ],
        )
    })]
}

/// E14, §7: index-only, a self-sufficient Sscan of the covering index
/// `(c0, c1)` raced against a background Jscan over `idx_c1` — the Sscan
/// is the safe side of the race.
pub(super) fn e14(f: &Fixtures) -> Vec<Part<'_>> {
    let (fx, covering) = f.pair();
    let req = move |b: usize| {
        let selective = b == 1;
        let (sscan, kp, residual, background): (KeyRange, KeyPred, RecordPred, KeyRange) =
            if selective {
                // The covering prefix c0 = 1 AND c1 = 1: the Sscan walks a
                // 200-entry prefix while the broad background range is
                // unproductive and is abandoned.
                (
                    KeyRange::eq(1),
                    Arc::new(|k: &[Value]| k[0] == Value::Int(1) && k[1] == Value::Int(1)),
                    Arc::new(|r: &Record| r[0] == Value::Int(1) && r[1] == Value::Int(1)),
                    KeyRange::at_most(78),
                )
            } else {
                // c1 = 1 alone has no usable prefix, so the Sscan walks
                // the whole covering index; the background Jscan's
                // 500-entry scan of idx_c1 completes long before that.
                (
                    KeyRange::all(),
                    Arc::new(|k: &[Value]| k[1] == Value::Int(1)),
                    Arc::new(|r: &Record| r[1] == Value::Int(1)),
                    KeyRange::eq(1),
                )
            };
        let indexes = vec![
            IndexChoice::fetch_needed(covering, sscan).with_self_sufficient(kp),
            IndexChoice::fetch_needed(&fx.indexes[1], background),
        ];
        request(&fx.table, indexes, residual)
    };
    vec![Part::Raced(Scenario {
        note: note("resolution", |_, o, events| {
            vec![events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::Winner { strategy, .. } => Some(strategy.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| o.strategy.to_string())]
        }),
        winners: true,
        ..Scenario::new(
            "§7 index-only tactic: self-sufficient Sscan vs background Jscan",
            &fx.table,
            "scenario",
            vec![
                "Sscan unselective: whole-index scan, Jscan wins".into(),
                "Sscan selective, bgr unproductive: Sscan wins".into(),
            ],
            vec![
                dynamic("index-only", Dynamic, req),
                // The best fetch-based comparator: through idx_c1 when the
                // Sscan is unselective (binding 0), through the covering
                // prefix when it is selective (binding 1).
                forced("best Fscan", Forced, |b| Fscan { pos: 1 - b }, req),
            ],
        )
    })]
}

/// E16, §1/§8 headline: a mixed workload of host-variable sweeps, Zipf
/// skew and a clustered column, against the plan committed per query
/// shape.
pub(super) fn e16(f: &Fixtures) -> Vec<Part<'_>> {
    let fam = Families::of(f.db(&f.families_30k, 30_000));
    const CASES: [(usize, i64); 8] = [
        (AGE, 0),
        (AGE, 50),
        (AGE, 90),
        (AGE, 99),
        (CITY, 0),
        (CITY, 5),
        (CITY, 300),
        (REGION, 3),
    ];
    let req = move |b: usize| match CASES[b] {
        (AGE, v) => fam.at_least(AGE, v),
        (col, v) => fam.equals(col, v),
    };
    let shape = |col| {
        if col == AGE {
            PredShape::Range
        } else {
            PredShape::Eq
        }
    };
    let committed: Vec<StaticPlan> = CASES
        .iter()
        .map(|&(col, _)| fam.committed(col, shape(col)))
        .collect();
    vec![Part::Raced(Scenario {
        total: true,
        ..Scenario::new(
            "headline: dynamic vs the plan committed per query shape, FAMILIES",
            fam.table,
            "query",
            CASES
                .iter()
                .map(|&(col, v)| match col {
                    AGE => format!("AGE >= {v} (host var sweep)"),
                    CITY => format!("CITY = {v} (zipf skew)"),
                    _ => format!("REGION = {v} (clustered)"),
                })
                .collect(),
            vec![
                dynamic("dynamic", Dynamic, req),
                forced("static(committed)", Committed, move |b| committed[b], req),
                forced("static Tscan", Forced, |_| Tscan, req),
                forced("static Fscan", Forced, |_| Fscan { pos: 0 }, req),
            ],
        )
    })]
}

/// E19, §8 production experience: a long randomized `AGE >= :A1` mix on a
/// warm cache, each contender on its own timeline.
pub(super) fn e19(f: &Fixtures) -> Vec<Part<'_>> {
    let fam = Families::of(f.db(&f.families_20k, 20_000));
    // An L-shaped binding mix, seeded in the ICDE'93 week: mostly
    // selective or empty probes, a tail of broad sweeps.
    let mut rng = StdRng::seed_from_u64(19930411);
    let mix: Rc<[i64]> = (0..400 / f.shrink)
        .map(|_| {
            if rng.gen_bool(0.8) {
                rng.gen_range(90..=105)
            } else {
                rng.gen_range(0..60)
            }
        })
        .collect();
    let n = mix.len();
    let req = move |b: usize| fam.at_least(AGE, mix[b]);
    vec![Part::Raced(Scenario::new(
        format!(
            "§8 steady state: {n} queries AGE >= :A1 on FAMILIES, 80% selective probes / 20% \
             broad sweeps, warm cache (*sum of per-query minima)"
        ),
        fam.table,
        "mix",
        vec![format!("{n} queries")],
        [
            dynamic("dynamic optimizer", Dynamic, req.clone()),
            forced("committed Tscan", Committed, |_| Tscan, req.clone()),
            forced(
                "committed Fscan",
                Committed,
                |_| Fscan { pos: 0 },
                req.clone(),
            ),
        ]
        .into_iter()
        .map(|c| whole_mix(c, n))
        .chain([per_query_oracle(req, n)])
        .collect(),
    ))]
}

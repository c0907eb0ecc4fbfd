//! E6, E9–E14, E16, E19 — the paper's engine-level claims in cost units
//! and on the clock, side by side.
//!
//! Each row of the scenario table names its fixture, its bindings and its
//! contenders: the dynamic optimizer first, then every static plan the
//! claim is judged against. Fixtures are built once, on first use, and
//! shared by every row that names them. One loop runs every row. For each
//! binding and contender it starts cold (buffer pool cleared, cost meter
//! zeroed) and takes the cost units and the row count from a first run,
//! then keeps the best wall-clock time of `TIMED_RUNS` more cold runs.
//! Every contender must deliver the dynamic run's row count, and every
//! repeat must charge bit-identical units, or the run panics.
//!
//! The oracle is the cheapest forced plan for each binding in units, and
//! the fastest in milliseconds. Each binding prints a units line with its
//! ms line beneath; `dyn/oracle` is the dynamic optimizer's regret in
//! each, and a committed plan's regret sits beside it.
//!
//! Run: `cargo run --release -p rdb-bench --bin paper [-- <id>]`, where
//! the optional `<id>` (`E6`, `E9`, `E10`, `E11`, `E12`, `E13`, `E14`,
//! `E16` or `E19`) runs that row alone.

use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdb_bench::fixtures::{discards, JscanFixture};
use rdb_bench::report::{fmt, print_table};
use rdb_btree::{BTree, KeyRange};
use rdb_core::baseline::{
    estimate_all, PredShape, StaticIndexInfo, StaticJscan, StaticJscanConfig,
};
use rdb_core::ridlist::RidTierConfig;
use rdb_core::StaticPlan::{Fscan, Tscan};
use rdb_core::{
    DynamicOptimizer, IndexChoice, KeyPred, OptimizeGoal, RecordPred, RetrievalRequest,
    RetrievalResult, StaticOptimizer, StaticPlan, TraceBuffer, TraceEvent, Tracer,
};
use rdb_query::Db;
use rdb_storage::{FileId, HeapTable, Record, SharedPool, Value};
use rdb_workload::{families_db, FamiliesConfig};
use Role::{Committed, Dynamic, Forced, Reference};

/// Timed cold runs per binding and contender; the clock keeps the best.
const TIMED_RUNS: usize = 5;

/// Builds one row of the scenario table over the shared fixtures.
type Row = fn(&Fixtures) -> Scenario<'_>;

/// The scenario table, in the order EXPERIMENTS.md gives the claims.
const TABLE: [(&str, Row); 9] = [
    ("E6", e6),
    ("E9", e9),
    ("E10", e10),
    ("E11", e11),
    ("E12", e12),
    ("E13", e13),
    ("E14", e14),
    ("E16", e16),
    ("E19", e19),
];

/// What a contender is in its row.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// The run under test; always the row's first contender.
    Dynamic,
    /// A static plan fixed before the binding is known: forced, and its
    /// regret against the oracle is printed.
    Committed,
    /// A forced plan: with the committed ones, it makes the oracle.
    Forced,
    /// Another dynamic run, for comparison only.
    Reference,
}

/// One run's result.
#[derive(Default)]
struct Outcome {
    rows: usize,
    cost: f64,
    strategy: &'static str,
    /// Wall-clock time the contender measured itself, when not all of the
    /// run is its work (the per-query oracle runs two plans per query).
    clock: Option<Duration>,
}

impl From<RetrievalResult> for Outcome {
    fn from(r: RetrievalResult) -> Self {
        Outcome {
            rows: r.deliveries.len(),
            cost: r.cost,
            strategy: r.strategy,
            clock: None,
        }
    }
}

struct Contender<'a> {
    name: &'static str,
    role: Role,
    run: Run<'a>,
}

/// Runs binding `b`; the tracer is enabled only for a noted first run.
type Run<'a> = Box<dyn Fn(usize, &Tracer) -> Outcome + 'a>;

/// A column read off the dynamic run and its trace: header and reader.
type Note = (&'static str, fn(&Outcome, &[TraceEvent]) -> String);

struct Scenario<'a> {
    /// The claim.
    title: String,
    /// The table every contender reads.
    table: &'a HeapTable,
    /// Header of the binding column, and one label per binding.
    axis: &'static str,
    bindings: Vec<String>,
    contenders: Vec<Contender<'a>>,
    note: Option<Note>,
    /// Adds a TOTAL line summing every binding.
    total: bool,
    /// Adds the winner in units and in ms.
    winners: bool,
}

/// A contender's numbers at one binding.
struct Measured {
    rows: usize,
    units: f64,
    ms: f64,
}

/// Starts a run cold: nothing resident, nothing charged.
fn cold(pool: &SharedPool) {
    pool.clear();
    pool.cost().reset();
}

/// One contender at binding `b`, cold: the rows, the units and (for the
/// dynamic run of a noted row) the note from a first run, then the best
/// clock of `TIMED_RUNS` repeats, each of which must charge the same.
fn run_cold(s: &Scenario<'_>, c: &Contender<'_>, b: usize, note: &mut String) -> Measured {
    cold(s.table.pool());
    let first = match s.note.filter(|_| c.role == Dynamic) {
        Some((_, read)) => {
            let buffer = TraceBuffer::shared(1 << 16);
            let first = (c.run)(b, &Tracer::new(buffer.clone()));
            *note = read(&first, &buffer.take());
            first
        }
        None => (c.run)(b, &Tracer::disabled()),
    };
    let mut best = Duration::MAX;
    for _ in 0..TIMED_RUNS {
        cold(s.table.pool());
        let start = Instant::now();
        let again = (c.run)(b, &Tracer::disabled());
        best = best.min(again.clock.unwrap_or_else(|| start.elapsed()));
        assert_eq!(
            (again.rows, again.cost.to_bits()),
            (first.rows, first.cost.to_bits()),
            "{} {}: a repeat cold run of {} differs from the first",
            s.title,
            s.bindings[b],
            c.name
        );
    }
    Measured {
        rows: first.rows,
        units: first.cost,
        ms: best.as_secs_f64() * 1e3,
    }
}

/// Every binding of `s` under every contender, with the dynamic run's
/// note; every contender must deliver the dynamic run's row count.
fn measure(s: &Scenario<'_>) -> Vec<(Vec<Measured>, String)> {
    (0..s.bindings.len())
        .map(|b| {
            let mut note = String::new();
            let runs: Vec<Measured> = s
                .contenders
                .iter()
                .map(|c| run_cold(s, c, b, &mut note))
                .collect();
            for (c, m) in s.contenders.iter().zip(&runs) {
                assert_eq!(
                    m.rows, runs[0].rows,
                    "{} {}: {} disagrees with {} on the row count",
                    s.title, s.bindings[b], c.name, s.contenders[0].name
                );
            }
            (runs, note)
        })
        .collect()
}

fn print_scenario(id: &str, s: &Scenario<'_>, results: &[(Vec<Measured>, String)]) {
    println!("== {id} {} ({} rows) ==\n", s.title, s.table.cardinality());
    let positions = |keep: fn(Role) -> bool| -> Vec<usize> {
        (0..s.contenders.len())
            .filter(|&i| keep(s.contenders[i].role))
            .collect()
    };
    let forced = positions(|r| matches!(r, Committed | Forced));
    let regrets = positions(|r| matches!(r, Dynamic | Committed));

    let mut headers: Vec<String> = vec![s.axis.into(), "rows".into()];
    headers.extend(s.contenders.iter().map(|c| c.name.to_string()));
    if !forced.is_empty() {
        headers.push("oracle".into());
        headers.extend(regrets.iter().map(|&i| match s.contenders[i].role {
            Dynamic => "dyn/oracle".to_string(),
            _ => format!("{}/oracle", s.contenders[i].name),
        }));
    }
    if s.winners {
        headers.push("winner".into());
    }
    if let Some((header, _)) = s.note {
        headers.push(header.into());
    }

    // One line: a value per contender, the oracle over the forced ones,
    // the regrets against it, the winner and the note.
    let line = |label: &str,
                rows: &str,
                values: &[f64],
                oracle: f64,
                show: fn(f64) -> String,
                note: &str| {
        let mut cells = vec![label.to_string(), rows.to_string()];
        cells.extend(values.iter().map(|&v| show(v)));
        if !forced.is_empty() {
            cells.push(show(oracle));
            cells.extend(regrets.iter().map(|&i| fmt(values[i] / oracle.max(1e-9))));
        }
        if s.winners {
            let best = (0..values.len())
                .min_by(|&a, &b| values[a].total_cmp(&values[b]))
                .expect("every row has contenders");
            cells.push(s.contenders[best].name.to_string());
        }
        if s.note.is_some() {
            cells.push(note.to_string());
        }
        cells
    };
    // Units first, milliseconds on the line beneath: what each reads off
    // a run, and how it prints.
    type View = (fn(&Measured) -> f64, fn(f64) -> String);
    let views: [View; 2] = [
        (|m| m.units, fmt),
        // Four decimals keep a microsecond run readable.
        (
            |m| m.ms,
            |v| if v < 0.1 { format!("{v:.4}") } else { fmt(v) },
        ),
    ];
    let mut totals = [
        (vec![0.0; s.contenders.len()], 0.0),
        (vec![0.0; s.contenders.len()], 0.0),
    ];
    let mut table = Vec::new();
    for (label, (runs, note)) in s.bindings.iter().zip(results) {
        for (v, ((value, show), total)) in views.iter().zip(&mut totals).enumerate() {
            let values: Vec<f64> = runs.iter().map(value).collect();
            let oracle = forced
                .iter()
                .map(|&i| values[i])
                .fold(f64::INFINITY, f64::min);
            total.0.iter_mut().zip(&values).for_each(|(t, v)| *t += v);
            total.1 += oracle;
            let rows = runs[0].rows.to_string();
            table.push(match v {
                0 => line(label, &rows, &values, oracle, *show, note),
                _ => line("ms", "", &values, oracle, *show, ""),
            });
        }
    }
    if s.total {
        for (label, ((_, show), (values, oracle))) in
            ["TOTAL", "ms"].iter().zip(views.iter().zip(&totals))
        {
            table.push(line(label, "", values, *oracle, *show, ""));
        }
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&headers, &table);
    println!();
}

fn dynamic<'a>(
    name: &'static str,
    role: Role,
    req: impl Fn(usize) -> RetrievalRequest<'a> + 'a,
) -> Contender<'a> {
    Contender {
        name,
        role,
        run: Box::new(move |b, tracer| {
            DynamicOptimizer::default()
                .run_traced(&req(b), None, tracer)
                .expect("in-memory retrieval")
                .into()
        }),
    }
}

fn forced<'a>(
    name: &'static str,
    role: Role,
    plan: impl Fn(usize) -> StaticPlan + 'a,
    req: impl Fn(usize) -> RetrievalRequest<'a> + 'a,
) -> Contender<'a> {
    Contender {
        name,
        role,
        run: Box::new(move |b, _| {
            StaticOptimizer::default()
                .execute(plan(b), &req(b))
                .expect("in-memory retrieval")
                .into()
        }),
    }
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

/// A total-time request with no limit and no order, charged to the
/// table's pool meter.
fn request<'a>(
    table: &'a HeapTable,
    indexes: Vec<IndexChoice<'a>>,
    residual: RecordPred,
) -> RetrievalRequest<'a> {
    RetrievalRequest {
        table,
        cost: table.pool().cost().clone(),
        indexes,
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
    }
}

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

/// The data sets, each built on first use and shared by every row that
/// names it.
#[derive(Default)]
struct Fixtures {
    /// Full-scale row counts, and E19's query count, are divided by this
    /// (the tests shrink them).
    shrink: usize,
    families_20k: OnceCell<Db>,
    families_30k: OnceCell<Db>,
    sweep: OnceCell<JscanFixture>,
    tiers: OnceCell<JscanFixture>,
    pair: OnceCell<(JscanFixture, BTree)>,
    ordered: OnceCell<JscanFixture>,
}

impl Fixtures {
    fn families<'a>(&'a self, cell: &'a OnceCell<Db>, rows: usize) -> Families<'a> {
        Families::of(cell.get_or_init(|| {
            families_db(&FamiliesConfig {
                rows: rows / self.shrink,
                ..FamiliesConfig::default()
            })
        }))
    }

    fn jscan<'a>(
        &'a self,
        cell: &'a OnceCell<JscanFixture>,
        rows: i64,
        mods: &[i64],
    ) -> &'a JscanFixture {
        cell.get_or_init(|| JscanFixture::build(rows / self.shrink as i64, mods, 200_000))
    }

    /// E11, E12 and E14's table, `c0 = i % 200` and `c1 = i % 80`, plus a
    /// covering index on `(c0, c1)` built by walking the heap.
    fn pair(&self) -> (&JscanFixture, &BTree) {
        let (fx, covering) = self.pair.get_or_init(|| {
            let fx = JscanFixture::build(40_000 / self.shrink as i64, &[200, 80], 200_000);
            let pool = fx.table.pool();
            let mut covering = BTree::new("idx_c0_c1", FileId(50), pool.clone(), vec![0, 1], 64);
            let mut scan = fx.table.scan();
            while let Some((rid, record)) =
                scan.next(&fx.table, pool.cost()).expect("in-memory scan")
            {
                covering.insert(vec![record[0].clone(), record[1].clone()], rid);
            }
            (fx, covering)
        });
        (fx, covering)
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

/// E6, §4: `select * from FAMILIES where AGE >= :A1` swept from all rows
/// to none. A plan committed before :A1 is known is right on one side of
/// the crossover only.
fn e6(f: &Fixtures) -> Scenario<'_> {
    let fam = f.families(&f.families_20k, 20_000);
    let committed = fam.committed(AGE, PredShape::Range);
    const A1: [i64; 9] = [0, 20, 50, 80, 90, 95, 99, 100, 200];
    let req = move |b: usize| fam.at_least(AGE, A1[b]);
    Scenario {
        title: format!(
            "§4 select * from FAMILIES where AGE >= :A1; the static optimizer committed \
             {committed:?} on its 1/3 range-selectivity guess"
        ),
        table: fam.table,
        axis: "binding",
        bindings: A1.iter().map(|a| format!(":A1={a}")).collect(),
        contenders: vec![
            dynamic("dynamic", Dynamic, req),
            forced("static(committed)", Committed, move |_| committed, req),
            forced("static Tscan", Forced, |_| Tscan, req),
            forced("static Fscan", Forced, |_| Fscan { pos: 0 }, req),
        ],
        note: Some(("dynamic tactic", |o, _| o.strategy.to_string())),
        total: false,
        winners: false,
    }
}

/// E9, §6 / Figure 6: `c0 < K AND c1 = 1`, the Jscan against statically
/// thresholded Jscan \[MoHa90\], Fscan and Tscan as `c0`'s selectivity sweeps.
fn e9(f: &Fixtures) -> Scenario<'_> {
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
    Scenario {
        title: "§6 Jscan: c0 < K (swept) and c1 = 1 (fixed 1/50)".into(),
        table: &fx.table,
        axis: "sweep",
        bindings: K.iter().map(|k| format!("K={k}")).collect(),
        contenders: vec![
            dynamic("dynamic Jscan", Dynamic, req),
            Contender {
                name: "static Jscan[MoHa90]",
                role: Forced,
                run: Box::new(move |b, _| {
                    let r = req(b);
                    StaticJscan::new(StaticJscanConfig::default())
                        .run(&r, &estimate_all(&r))
                        .expect("in-memory retrieval")
                        .into()
                }),
            },
            forced("Fscan(c1)", Forced, |_| Fscan { pos: 1 }, req),
            forced("Tscan", Forced, |_| Tscan, req),
        ],
        note: Some(("scans abandoned", |_, events| discards(events).to_string())),
        total: false,
        winners: false,
    }
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
fn e10(f: &Fixtures) -> Scenario<'_> {
    let fx = f.jscan(&f.tiers, 50_000, &[50_000]);
    const SIZES: [i64; 11] = [0, 1, 3, 7, 15, 20, 40, 120, 800, 4000, 9000];
    let req = move |b: usize| {
        let s = SIZES[b];
        let residual: RecordPred = Arc::new(move |r: &Record| r[0] < Value::Int(s));
        let index = IndexChoice::fetch_needed(&fx.indexes[0], KeyRange::at_most(s - 1));
        request(&fx.table, vec![index], residual)
    };
    Scenario {
        title: "§6 tiered RID storage: c0 < size".into(),
        table: &fx.table,
        axis: "result size",
        bindings: SIZES.iter().map(|s| format!("{s} rids")).collect(),
        contenders: vec![dynamic("dynamic", Dynamic, req)],
        note: Some(("tactic, tier", rid_tier)),
        total: false,
        winners: false,
    }
}

/// E11, §7: background-only (Jscan and a sorted final fetch) for a
/// total-time goal over fetch-needed indexes.
fn e11(f: &Fixtures) -> Scenario<'_> {
    let (fx, _) = f.pair();
    const AB: [(i64, i64); 3] = [(1, 1), (1, 40), (150, 1)];
    let req = move |b: usize| c0_c1(fx, AB[b].0, AB[b].1);
    Scenario {
        title: "§7 background-only tactic (total-time, fetch-needed only)".into(),
        table: &fx.table,
        axis: "restriction",
        bindings: AB.iter().map(|(a, b)| format!("c0={a},c1={b}")).collect(),
        contenders: vec![
            dynamic("background-only", Dynamic, req),
            forced("Fscan", Forced, |_| Fscan { pos: 0 }, req),
            forced("Tscan", Forced, |_| Tscan, req),
        ],
        note: Some(("tactic", |o, _| o.strategy.to_string())),
        total: false,
        winners: true,
    }
}

/// E12, §7: fast-first, whose foreground borrows the background Jscan's
/// RIDs: near Fscan when the consumer stops early, near background-only
/// when it runs to completion.
fn e12(f: &Fixtures) -> Scenario<'_> {
    let (fx, _) = f.pair();
    const LIMITS: [Option<usize>; 4] = [Some(1), Some(5), Some(25), None];
    let req = move |b: usize, goal| RetrievalRequest {
        goal,
        limit: LIMITS[b],
        ..c0_c1(fx, 1, 1)
    };
    let fast_first = move |b| req(b, OptimizeGoal::FastFirst);
    let total_time = move |b| req(b, OptimizeGoal::TotalTime);
    Scenario {
        title: "§7 fast-first tactic: c0 = 1 and c1 = 1, stopped early or not".into(),
        table: &fx.table,
        axis: "termination",
        bindings: LIMITS
            .iter()
            .map(|l| l.map_or("run to completion".into(), |n| format!("stop after {n}")))
            .collect(),
        contenders: vec![
            dynamic("fast-first", Dynamic, fast_first),
            dynamic("background-only", Reference, total_time),
            forced("Fscan", Forced, |_| Fscan { pos: 0 }, fast_first),
        ],
        note: None,
        total: false,
        winners: true,
    }
}

/// E13, §7: the sorted tactic, an order-needed Fscan whose fetches a
/// background Jscan filter rejects before they happen.
fn e13(f: &Fixtures) -> Scenario<'_> {
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
    Scenario {
        title: "§7 sorted tactic: c0 < sel order by id".into(),
        table: &fx.table,
        axis: "restriction",
        bindings: SEL.iter().map(|s| format!("c0<{s}")).collect(),
        contenders: vec![
            dynamic("sorted (Fscan+Jscan filter)", Dynamic, filtered),
            // Offered the ordered index alone, the optimizer has nothing
            // to race: this is the forced order-needed Fscan.
            dynamic("Fscan alone", Forced, alone),
        ],
        note: None,
        total: false,
        winners: true,
    }
}

/// E14, §7: index-only, a self-sufficient Sscan of the covering index
/// `(c0, c1)` raced against a background Jscan over `idx_c1` — the Sscan
/// is the safe side of the race.
fn e14(f: &Fixtures) -> Scenario<'_> {
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
    Scenario {
        title: "§7 index-only tactic: self-sufficient Sscan vs background Jscan".into(),
        table: &fx.table,
        axis: "scenario",
        bindings: vec![
            "Sscan unselective: whole-index scan, Jscan wins".into(),
            "Sscan selective, bgr unproductive: Sscan wins".into(),
        ],
        contenders: vec![
            dynamic("index-only", Dynamic, req),
            // The best fetch-based comparator: through idx_c1 when the
            // Sscan is unselective (binding 0), through the covering
            // prefix when it is selective (binding 1).
            forced("best Fscan", Forced, |b| Fscan { pos: 1 - b }, req),
        ],
        note: Some(("resolution", |o, events| {
            events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::Winner { strategy, .. } => Some(strategy.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| o.strategy.to_string())
        })),
        total: false,
        winners: true,
    }
}

/// E16, §1/§8 headline: a mixed workload of host-variable sweeps, Zipf
/// skew and a clustered column, against the plan committed per query
/// shape.
fn e16(f: &Fixtures) -> Scenario<'_> {
    let fam = f.families(&f.families_30k, 30_000);
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
    Scenario {
        title: "headline: dynamic vs the plan committed per query shape, FAMILIES".into(),
        table: fam.table,
        axis: "query",
        bindings: CASES
            .iter()
            .map(|&(col, v)| match col {
                AGE => format!("AGE >= {v} (host var sweep)"),
                CITY => format!("CITY = {v} (zipf skew)"),
                _ => format!("REGION = {v} (clustered)"),
            })
            .collect(),
        contenders: vec![
            dynamic("dynamic", Dynamic, req),
            forced("static(committed)", Committed, move |b| committed[b], req),
            forced("static Tscan", Forced, |_| Tscan, req),
            forced("static Fscan", Forced, |_| Fscan { pos: 0 }, req),
        ],
        note: None,
        total: true,
        winners: false,
    }
}

/// E19, §8 production experience: a long randomized `AGE >= :A1` mix on a
/// warm cache, each contender on its own timeline.
fn e19(f: &Fixtures) -> Scenario<'_> {
    let fam = f.families(&f.families_20k, 20_000);
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
    Scenario {
        title: format!(
            "§8 steady state: {n} queries AGE >= :A1 on FAMILIES, 80% selective probes / 20% \
             broad sweeps, warm cache (*sum of per-query minima)"
        ),
        table: fam.table,
        axis: "mix",
        bindings: vec![format!("{n} queries")],
        contenders: [
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
        note: None,
        total: false,
        winners: false,
    }
}

fn main() {
    let filter = std::env::args().nth(1);
    let rows: Vec<_> = TABLE
        .iter()
        .filter(|(id, _)| filter.as_deref().is_none_or(|f| f.eq_ignore_ascii_case(id)))
        .collect();
    if rows.is_empty() {
        eprintln!(
            "unknown experiment {filter:?}: expected one of {:?}",
            TABLE.map(|(id, _)| id)
        );
        std::process::exit(2);
    }
    let fixtures = Fixtures {
        shrink: 1,
        ..Fixtures::default()
    };
    for (id, build) in rows {
        let scenario = build(&fixtures);
        print_scenario(id, &scenario, &measure(&scenario));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of the table at 1/20 of its rows. Besides the row counts
    /// checked here, `measure` panics unless every repeat cold run
    /// charges bit-identical units.
    #[test]
    fn every_contender_delivers_the_dynamic_rows_and_repeats_its_units() {
        let fixtures = Fixtures {
            shrink: 20,
            ..Fixtures::default()
        };
        for (id, build) in TABLE {
            let scenario = build(&fixtures);
            for (runs, _) in measure(&scenario) {
                assert!(runs.iter().all(|m| m.rows == runs[0].rows), "{id}");
            }
        }
    }
}

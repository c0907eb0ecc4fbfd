//! Every figure and quantified claim of the paper: one row per section of
//! EXPERIMENTS.md, printed under the section's id. A row prints two kinds
//! of part:
//!
//! * **Units-only tables**: the §2 distribution algebra and the §3 models
//!   (E1–E5, NWAY, E17), and engine readings with no clock to read (HIST,
//!   E18, E7's \[Ant92\] sampling and A4's cache-state timeline).
//! * **Scenarios, raced cold**: a fixture, its bindings, and contenders,
//!   the run under test first. For each binding and contender the runner
//!   starts cold (buffer pool cleared, cost meter zeroed), takes the units
//!   and the count from a first run, then keeps the best wall-clock time
//!   of `TIMED_RUNS` more cold runs. Every contender must deliver the first
//!   one's count, and every repeat must charge bit-identical units, or the
//!   run panics. The oracle is the cheapest forced plan per binding in
//!   units, and the fastest on the clock; a units line prints with its
//!   clock line (ms, or ns) beneath, and `dyn/oracle` is the dynamic
//!   optimizer's regret in each.
//!
//! Fixtures are built on first use and shared by every row that names them.
//!
//! Run: `cargo run --release -p rdb-bench --bin paper [-- <id>]`, where
//! the optional `<id>` (see `TABLE`) runs that row alone.

#[path = "paper/ablation.rs"]
mod ablation;
#[path = "paper/estimation.rs"]
mod estimation;
#[path = "paper/models.rs"]
mod models;
#[path = "paper/retrieval.rs"]
mod retrieval;

use std::cell::OnceCell;
use std::time::{Duration, Instant};

use rdb_bench::fixtures::JscanFixture;
use rdb_bench::report::{fmt, print_table};
use rdb_btree::BTree;
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, OptimizeGoal, RecordPred, RetrievalRequest,
    RetrievalResult, StaticOptimizer, StaticPlan, TraceBuffer, TraceEvent, Tracer,
};
use rdb_query::Db;
use rdb_storage::{FileId, HeapTable, SharedPool};
use rdb_workload::{families_db, FamiliesConfig};
use Role::{Committed, Dynamic, Forced};

/// Timed cold runs per binding and contender; the clock keeps the best.
const TIMED_RUNS: usize = 5;

/// Builds one row of the table: the parts of one EXPERIMENTS.md section.
type Row = fn(&Fixtures) -> Vec<Part<'_>>;

/// The table, in the order EXPERIMENTS.md gives the sections.
const TABLE: [(&str, Row); 24] = [
    ("E1", models::e1),
    ("E2", models::e2),
    ("E3", models::e3),
    ("E4", models::e4),
    ("E5", models::e5),
    ("NWAY", models::n_way),
    ("E6", retrieval::e6),
    ("E7", estimation::e7),
    ("E8", estimation::e8),
    ("HIST", estimation::hist),
    ("E9", retrieval::e9),
    ("E10", retrieval::e10),
    ("E11", retrieval::e11),
    ("E12", retrieval::e12),
    ("E13", retrieval::e13),
    ("E14", retrieval::e14),
    ("E16", retrieval::e16),
    ("E17", models::e17),
    ("E18", estimation::e18),
    ("E19", retrieval::e19),
    ("A1", ablation::a1),
    ("A2", ablation::a2),
    ("A3", ablation::a3),
    ("A4", ablation::a4),
];

/// What a row prints.
enum Part<'a> {
    /// An engine claim raced cold: units, with the clock beneath.
    Raced(Scenario<'a>),
    /// Units only: a title, the column headers separated by `|`, the rows.
    Units(String, &'static str, Vec<Vec<String>>),
}

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
    /// What every contender must agree on: rows delivered, unless the
    /// scenario counts something else.
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

/// Columns read off the first contender's first run at binding `b`, and its
/// trace: headers separated by `|`, and the reader.
type Note<'a> = (
    &'static str,
    Box<dyn Fn(usize, &Outcome, &[TraceEvent]) -> Vec<String> + 'a>,
);

fn note<'a>(
    headers: &'static str,
    read: impl Fn(usize, &Outcome, &[TraceEvent]) -> Vec<String> + 'a,
) -> Option<Note<'a>> {
    Some((headers, Box::new(read)))
}

/// The unit of a scenario's clock line; ns for runs of a microsecond.
#[derive(Clone, Copy)]
enum Clock {
    Ms,
    Ns,
}

struct Scenario<'a> {
    /// The claim.
    title: String,
    /// The table every contender reads.
    table: &'a HeapTable,
    /// Header of the binding column, and one label per binding.
    axis: &'static str,
    bindings: Vec<String>,
    /// Header of the column every contender must agree on.
    count: &'static str,
    contenders: Vec<Contender<'a>>,
    note: Option<Note<'a>>,
    /// Adds a TOTAL line summing every binding.
    total: bool,
    /// Adds the winner in units and on the clock.
    winners: bool,
    clock: Clock,
}

impl<'a> Scenario<'a> {
    /// A scenario counting delivered rows and timed in ms, with no note,
    /// total or winner column.
    fn new(
        title: impl Into<String>,
        table: &'a HeapTable,
        axis: &'static str,
        bindings: Vec<String>,
        contenders: Vec<Contender<'a>>,
    ) -> Self {
        Scenario {
            title: title.into(),
            table,
            axis,
            bindings,
            count: "rows",
            contenders,
            note: None,
            total: false,
            winners: false,
            clock: Clock::Ms,
        }
    }
}

/// A contender's numbers at one binding.
struct Measured {
    rows: usize,
    units: f64,
    secs: f64,
}

/// Starts a run cold: nothing resident, nothing charged.
fn cold(pool: &SharedPool) {
    pool.clear();
    pool.cost().reset();
}

/// One contender at binding `b`, cold: the count, the units and (for the
/// first contender of a noted row) the note from a first run, then the
/// best clock of `TIMED_RUNS` repeats, each of which must charge the same.
fn run_cold(s: &Scenario<'_>, c: &Contender<'_>, b: usize, note: &mut Vec<String>) -> Measured {
    cold(s.table.pool());
    let first = match s.note.as_ref().filter(|_| c.role == Dynamic) {
        Some((_, read)) => {
            let buffer = TraceBuffer::shared(1 << 16);
            let first = (c.run)(b, &Tracer::new(buffer.clone()));
            *note = read(b, &first, &buffer.take());
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
        secs: best.as_secs_f64(),
    }
}

/// Every binding of `s` under every contender, with the first contender's
/// note; every contender must deliver the first contender's count.
fn measure(s: &Scenario<'_>) -> Vec<(Vec<Measured>, Vec<String>)> {
    (0..s.bindings.len())
        .map(|b| {
            let mut note = Vec::new();
            let runs: Vec<Measured> = s
                .contenders
                .iter()
                .map(|c| run_cold(s, c, b, &mut note))
                .collect();
            for (c, m) in s.contenders.iter().zip(&runs) {
                assert_eq!(
                    m.rows, runs[0].rows,
                    "{} {}: {} disagrees with {} on the {}",
                    s.title, s.bindings[b], c.name, s.contenders[0].name, s.count
                );
            }
            (runs, note)
        })
        .collect()
}

fn print_scenario(id: &str, s: &Scenario<'_>, results: &[(Vec<Measured>, Vec<String>)]) {
    println!("== {id} {} ({} rows) ==\n", s.title, s.table.cardinality());
    let positions = |keep: fn(Role) -> bool| -> Vec<usize> {
        (0..s.contenders.len())
            .filter(|&i| keep(s.contenders[i].role))
            .collect()
    };
    let forced = positions(|r| matches!(r, Committed | Forced));
    let regrets = positions(|r| matches!(r, Dynamic | Committed));

    let mut headers: Vec<String> = vec![s.axis.into(), s.count.into()];
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
    if let Some((note, _)) = &s.note {
        headers.extend(note.split('|').map(String::from));
    }

    // One line: a value per contender, the oracle over the forced ones,
    // the regrets against it, the winner and the note.
    let line = |label: &str,
                rows: &str,
                values: &[f64],
                oracle: f64,
                show: fn(f64) -> String,
                note: &[String]| {
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
        cells.extend(note.iter().cloned());
        cells.resize(headers.len(), String::new());
        cells
    };
    // Units first, the clock on the line beneath, and how each prints: four
    // decimals keep a microsecond run readable in ms.
    let (clock, scale) = match s.clock {
        Clock::Ms => ("ms", 1e3),
        Clock::Ns => ("ns", 1e9),
    };
    let shows: [fn(f64) -> String; 2] = [fmt, |v| if v < 0.1 { format!("{v:.4}") } else { fmt(v) }];
    let mut totals = [
        (vec![0.0; s.contenders.len()], 0.0),
        (vec![0.0; s.contenders.len()], 0.0),
    ];
    let mut table = Vec::new();
    for (label, (runs, note)) in s.bindings.iter().zip(results) {
        for (v, (show, total)) in shows.iter().zip(&mut totals).enumerate() {
            let value = |m: &Measured| if v == 0 { m.units } else { m.secs * scale };
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
                _ => line(clock, "", &values, oracle, *show, &[]),
            });
        }
    }
    if s.total {
        for (label, (show, (values, oracle))) in
            ["TOTAL", clock].iter().zip(shows.iter().zip(&totals))
        {
            table.push(line(label, "", values, *oracle, *show, &[]));
        }
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&headers, &table);
    println!();
}

/// The dynamic optimizer under `config(b)`.
fn tuned<'a>(
    name: &'static str,
    role: Role,
    config: impl Fn(usize) -> DynamicConfig + 'a,
    req: impl Fn(usize) -> RetrievalRequest<'a> + 'a,
) -> Contender<'a> {
    Contender {
        name,
        role,
        run: Box::new(move |b, tracer| {
            DynamicOptimizer::new(config(b))
                .run_traced(&req(b), None, tracer)
                .expect("in-memory retrieval")
                .into()
        }),
    }
}

fn dynamic<'a>(
    name: &'static str,
    role: Role,
    req: impl Fn(usize) -> RetrievalRequest<'a> + 'a,
) -> Contender<'a> {
    tuned(name, role, |_| DynamicConfig::default(), req)
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
        arms: Vec::new(),
        residual,
        goal: OptimizeGoal::TotalTime,
        order_required: false,
        limit: None,
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
    unique: OnceCell<JscanFixture>,
    abandon_right: OnceCell<JscanFixture>,
    abandon_wrong: OnceCell<JscanFixture>,
    points: OnceCell<JscanFixture>,
    straddle: OnceCell<JscanFixture>,
    interference: OnceCell<JscanFixture>,
}

impl Fixtures {
    fn db<'a>(&'a self, cell: &'a OnceCell<Db>, rows: usize) -> &'a Db {
        cell.get_or_init(|| {
            families_db(&FamiliesConfig {
                rows: rows / self.shrink,
                ..FamiliesConfig::default()
            })
        })
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
        for part in build(&fixtures) {
            match part {
                Part::Raced(s) => print_scenario(id, &s, &measure(&s)),
                Part::Units(title, headers, rows) => {
                    println!("== {id} {title} ==\n");
                    print_table(&headers.split('|').collect::<Vec<_>>(), &rows);
                    println!();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of the table at 1/20 of its rows: the units-only tables
    /// are built, and every scenario is measured. Besides the counts
    /// checked here, `measure` panics unless every repeat cold run charges
    /// bit-identical units.
    #[test]
    fn every_contender_delivers_the_dynamic_rows_and_repeats_its_units() {
        let fixtures = Fixtures {
            shrink: 20,
            ..Fixtures::default()
        };
        for (id, build) in TABLE {
            for part in build(&fixtures) {
                if let Part::Raced(scenario) = part {
                    for (runs, _) in measure(&scenario) {
                        assert!(runs.iter().all(|m| m.rows == runs[0].rows), "{id}");
                    }
                }
            }
        }
    }
}
